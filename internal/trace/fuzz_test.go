package trace

import (
	"bytes"
	"testing"

	"ucp/internal/isa"
)

// FuzzReadAny hardens the trace file parser — parseArena, which
// LoadArena uses too — against arbitrary input: it must never panic, and
// whatever it accepts must seek and survive a rewrite intact.
func FuzzReadAny(f *testing.F) {
	prog, err := BuildProgram(QuickProfiles()[0])
	if err != nil {
		f.Fatal(err)
	}
	var v2, long bytes.Buffer
	if err := WriteCompact(&v2, Collect(NewWalker(prog), 200)); err != nil {
		f.Fatal(err)
	}
	// Long enough that a mid-stream Skip jumps to a seek-index snapshot.
	if err := WriteCompact(&long, Collect(NewWalker(prog), 2*ArenaIndexPeriod+200)); err != nil {
		f.Fatal(err)
	}
	// A one-record file in the retired fixed-width v1 format: rejected.
	f.Add(append(header(1, 1), make([]byte, 29)...))
	f.Add(v2.Bytes())
	f.Add([]byte("UCPT"))
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), v2.Bytes()...), 0, 0, 0))
	f.Add(long.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadAny(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		a, err := parseArena(data)
		if err != nil {
			t.Fatalf("ReadAny accepted a file parseArena rejects: %v", err)
		}
		for _, k := range []int{0, 1, len(got) / 2, len(got) - 1, len(got)} {
			if k < 0 || k > len(got) {
				continue
			}
			c := a.Cursor()
			if n := c.Skip(k); n != k {
				t.Fatalf("Skip(%d) skipped %d of %d", k, n, len(got))
			}
			rest := drainScalar(c, len(got)+1)
			if len(rest) != len(got)-k {
				t.Fatalf("after Skip(%d): drained %d, want %d", k, len(rest), len(got)-k)
			}
			for i := range rest {
				if rest[i] != got[k+i] {
					t.Fatalf("after Skip(%d): record %d = %+v, want %+v", k, k+i, rest[i], got[k+i])
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteCompact(&buf, got); err != nil {
			t.Fatalf("accepted trace failed to re-serialize: %v", err)
		}
		back, err := ReadAny(&buf)
		if err != nil {
			t.Fatalf("rewritten trace rejected: %v", err)
		}
		if !semSame(got, back) {
			t.Fatal("rewritten trace decodes differently")
		}
	})
}

// FuzzValidate ensures the consistency checker never panics on
// adversarial instruction slices.
func FuzzValidate(f *testing.F) {
	f.Add(uint64(0x1000), uint8(5), true, uint64(0x2000))
	f.Fuzz(func(t *testing.T, pc uint64, class uint8, taken bool, target uint64) {
		insts := []isa.Inst{
			{PC: pc, Class: isa.Class(class % uint8(isa.NumClasses)), Taken: taken, Target: target},
			{PC: pc + 4, Class: isa.ALU},
		}
		_ = Validate(insts) // must not panic
	})
}
