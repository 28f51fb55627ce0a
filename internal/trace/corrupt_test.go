package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"ucp/internal/isa"
)

// header builds a UCPT file header claiming version v and n records.
func header(v uint32, n uint64) []byte {
	b := make([]byte, 16)
	copy(b, fileMagic)
	binary.LittleEndian.PutUint32(b[4:8], v)
	binary.LittleEndian.PutUint64(b[8:16], n)
	return b
}

// corruptInsts is a small well-formed instruction sequence exercising
// every record shape (explicit PC, taken branch, memory delta, register
// change) so truncation cuts land inside varied field encodings.
func corruptInsts() []isa.Inst {
	var insts []isa.Inst
	pc := uint64(0x1000)
	for i := 0; i < 50; i++ {
		in := isa.Inst{PC: pc, Class: isa.ALU, Dst: uint8(i % 8), Src1: 1, Src2: 2}
		switch i % 5 {
		case 1:
			in.Class = isa.Load
			in.MemAddr = 0x8000 + uint64(i)*64
		case 2:
			in.Class = isa.Store
			in.MemAddr = 0x9000 + uint64(i)*8
		case 3:
			in.Class = isa.CondBranch
			in.Taken = i%2 == 1
			in.Target = pc + 0x40
		}
		insts = append(insts, in)
		pc = in.NextPC()
	}
	return insts
}

// compactFile is corruptInsts written as a trace file.
func compactFile(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCompact(&buf, corruptInsts()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAnyTruncated cuts a valid file at every byte boundary; every
// prefix must fail with an error — no panic, no hang.
func TestReadAnyTruncated(t *testing.T) {
	insts := corruptInsts()
	full := compactFile(t)
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadAny(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed without error", cut, len(full))
		}
	}
	got, err := ReadAny(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("full file: %v", err)
	}
	if len(got) != len(insts) {
		t.Fatalf("full file decoded %d insts, want %d", len(got), len(insts))
	}
}

// TestReadAnyTrailingBytes checks ReadAny rejects bytes after the
// declared records, as LoadArena does: the two accept the same files.
func TestReadAnyTrailingBytes(t *testing.T) {
	data := append(compactFile(t), 0, 0, 0)
	_, err := ReadAny(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "3 trailing bytes") {
		t.Fatalf("ReadAny with 3 trailing bytes: err = %v", err)
	}
}

// TestReadAnyLyingHeader feeds headers whose record count vastly
// exceeds the body. The reader must fail gracefully with a truncation
// error and must not allocate storage proportional to the claimed
// count (a 512M-record claim would be ~25 GB if trusted).
func TestReadAnyLyingHeader(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty body", header(compactVersion, 1<<29)},
		{"one record", append(header(compactVersion, 1_000_000), 0x00)},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, tc := range cases {
		if _, err := ReadAny(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: error %q does not mention truncation", tc.name, err)
		}
	}
	runtime.ReadMemStats(&after)
	// The seek index grows only with records that parse, so both cases
	// stay far under the multi-gigabyte allocations a trusted
	// count would trigger.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<29 {
		t.Fatalf("lying headers allocated %d bytes — count is being trusted", grew)
	}
}

// TestReadAnyBadRecords checks malformed record payloads fail with a
// descriptive error instead of decoding garbage.
func TestReadAnyBadRecords(t *testing.T) {
	badClass := append(header(compactVersion, 1), 0x0f) // class 15, no optional fields
	if _, err := ReadAny(bytes.NewReader(badClass)); err == nil || !strings.Contains(err.Error(), "bad class") {
		t.Errorf("bad class: err = %v", err)
	}
	aluWithMem := append(header(compactVersion, 1), byte(isa.ALU)|flagMem, 0x02)
	if _, err := ReadAny(bytes.NewReader(aluWithMem)); err == nil || !strings.Contains(err.Error(), "memory operand") {
		t.Errorf("memory delta on an ALU record: err = %v", err)
	}
	if _, err := ReadAny(bytes.NewReader(header(1, 0))); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("retired version 1: err = %v", err)
	}
	if _, err := ReadAny(bytes.NewReader(header(99, 0))); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("bad version: err = %v", err)
	}
	if _, err := ReadAny(bytes.NewReader(header(compactVersion, 1<<40))); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("absurd count: err = %v", err)
	}
	if _, err := ReadAny(bytes.NewReader([]byte("NOPE000000000000"))); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic: err = %v", err)
	}
}
