package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ucp/internal/isa"
)

// arenaInsts is a control-flow-consistent stream long enough to cross
// several seek-index snapshot boundaries.
func arenaInsts(t *testing.T, n int) []isa.Inst {
	t.Helper()
	prog, err := BuildProgram(QuickProfiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	return Collect(NewWalker(prog), n)
}

// semSame compares streams under the compact codec's documented loss:
// the target of a not-taken branch is not serialized (and never consumed
// by the simulator), so arena streams are compared semantically.
func semSame(a, b []isa.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !semanticallyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Compile-time pin: a Cursor must slot into every consumer seam.
var _ Source = (*Cursor)(nil)
var _ BatchSource = (*Cursor)(nil)
var _ Skipper = (*Cursor)(nil)
var _ WarmSkipper = (*Cursor)(nil)

func TestArenaCursorMatchesSlice(t *testing.T) {
	insts := arenaInsts(t, 3*ArenaIndexPeriod+117)
	a := NewArena(insts)
	if a.Len() != len(insts) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(insts))
	}

	if got := drainScalar(a.Cursor(), len(insts)+10); !semSame(insts, got) {
		t.Fatalf("scalar drain diverges (%d vs %d insts)", len(got), len(insts))
	}

	// Batch drain with an awkward batch size so batches straddle
	// snapshot boundaries.
	c := a.Cursor()
	var got []isa.Inst
	buf := make([]isa.Inst, 193)
	for {
		n := c.NextBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if !semSame(insts, got) {
		t.Fatalf("batch drain diverges (%d vs %d insts)", len(got), len(insts))
	}

	// Reset rewinds fully.
	c.Reset()
	if got := drainScalar(c, len(insts)+10); !semSame(insts, got) {
		t.Fatal("stream diverges after Reset")
	}
}

// TestArenaCursorSkip pins Skip against the SliceSource reference across
// snapshot boundaries: same skip count, identical stream afterwards.
func TestArenaCursorSkip(t *testing.T) {
	insts := arenaInsts(t, 2*ArenaIndexPeriod+500)
	a := NewArena(insts)
	const tail = 600
	for _, n := range []int{0, 1, 100, ArenaIndexPeriod - 1, ArenaIndexPeriod,
		ArenaIndexPeriod + 1, 2 * ArenaIndexPeriod, len(insts), len(insts) + 5} {
		ref := NewSliceSource(insts)
		refSkipped := ref.Skip(n)
		want := drainScalar(ref, tail)

		c := a.Cursor()
		if got := c.Skip(n); got != refSkipped {
			t.Fatalf("Skip(%d) = %d, want %d", n, got, refSkipped)
		}
		if got := drainScalar(c, tail); !semSame(want, got) {
			t.Fatalf("stream diverges after Skip(%d)", n)
		}
	}

	// Consecutive skips from a non-zero position must land identically.
	ref := NewSliceSource(insts)
	c := a.Cursor()
	for _, n := range []int{37, ArenaIndexPeriod, 2000, 9} {
		ref.Skip(n)
		c.Skip(n)
		wi, wok := ref.Next()
		gi, gok := c.Next()
		if wok != gok || !semanticallyEqual(wi, gi) {
			t.Fatalf("consecutive skips diverge at n=%d", n)
		}
	}
}

// TestArenaCursorSkipWarm pins SkipWarm callback parity against the
// materializing fallback, plus the post-skip stream position.
func TestArenaCursorSkipWarm(t *testing.T) {
	insts := arenaInsts(t, ArenaIndexPeriod+777)
	a := NewArena(insts)
	for _, n := range []int{0, 1, 500, ArenaIndexPeriod + 1, len(insts) + 3} {
		var want condRec
		refSkipped := SkipWarmN(scalarOnly{NewSliceSource(insts)}, n, &want)
		wantTail := drainScalar(scalarOnlyAt(insts, refSkipped), 400)

		var rec condRec
		c := a.Cursor()
		if got := c.SkipWarm(n, &rec); got != refSkipped {
			t.Fatalf("SkipWarm(%d) = %d, want %d", n, got, refSkipped)
		}
		if !sameEvents(want.events, rec.events) {
			t.Fatalf("SkipWarm(%d): warm event sequence diverges (%d vs %d events)",
				n, len(rec.events), len(want.events))
		}
		if got := drainScalar(c, 400); !semSame(wantTail, got) {
			t.Fatalf("stream diverges after SkipWarm(%d)", n)
		}
	}
}

// scalarOnlyAt is a slice source already advanced past pos instructions.
func scalarOnlyAt(insts []isa.Inst, pos int) Source {
	s := NewSliceSource(insts)
	s.Skip(pos)
	return s
}

// instDigest folds a full instruction stream into a comparable hash
// (not-taken branch targets excluded — the compact codec drops them).
func instDigest(src Source) [sha256.Size]byte {
	h := sha256.New()
	var rec [32]byte
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if !in.Taken {
			in.Target = 0
		}
		binary.LittleEndian.PutUint64(rec[0:8], in.PC)
		binary.LittleEndian.PutUint64(rec[8:16], in.Target)
		binary.LittleEndian.PutUint64(rec[16:24], in.MemAddr)
		rec[24] = byte(in.Class)
		rec[25] = 0
		if in.Taken {
			rec[25] = 1
		}
		rec[26], rec[27], rec[28] = in.Dst, in.Src1, in.Src2
		h.Write(rec[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestArenaConcurrentCursors runs many cursors over one arena on
// separate goroutines (meaningful under -race): every cursor must
// produce a byte-identical stream digest, interleaving skips to stress
// the shared seek index.
func TestArenaConcurrentCursors(t *testing.T) {
	insts := arenaInsts(t, 2*ArenaIndexPeriod+901)
	a := NewArena(insts)
	want := instDigest(NewSliceSource(insts))

	const goroutines = 8
	digests := make([][sha256.Size]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := a.Cursor()
			// Perturb the cursor with a goroutine-specific skip pattern
			// first, then rewind and digest the full stream.
			c.Skip(g * 1001)
			c.Next()
			c.Reset()
			digests[g] = instDigest(c)
		}(g)
	}
	wg.Wait()
	for g, d := range digests {
		if d != want {
			t.Fatalf("cursor on goroutine %d produced a divergent stream digest", g)
		}
	}
}

// TestLoadArena checks a file loads into the arena built in memory
// from the same instructions: same identity, same stream.
func TestLoadArena(t *testing.T) {
	insts := arenaInsts(t, 5000)
	path := filepath.Join(t.TempDir(), "t.trace")
	var buf bytes.Buffer
	if err := WriteCompact(&buf, insts); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	ref := NewArena(insts)
	a, err := LoadArena(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != ref.ID() {
		t.Fatalf("ID %s differs from in-memory arena %s", a.ID(), ref.ID())
	}
	if got := sha256.Sum256(buf.Bytes()); a.ID() != hex.EncodeToString(got[:]) {
		t.Fatal("ID is not the SHA-256 of the file")
	}
	if got := drainScalar(a.Cursor(), len(insts)+10); !semSame(insts, got) {
		t.Fatal("stream diverges")
	}
}

// TestLoadArenaIgnoresSeekIndexFile plants, beside a trace with one bad
// class byte, a seek-index file in the retired <trace>.idx format that
// matches the trace's digest. No file beside a trace may let a load
// skip record validation: LoadArena must fail with the scan's error,
// not return an arena whose first cursor read panics.
func TestLoadArenaIgnoresSeekIndexFile(t *testing.T) {
	insts := arenaInsts(t, 2*ArenaIndexPeriod+333)
	var buf bytes.Buffer
	if err := WriteCompact(&buf, insts); err != nil {
		t.Fatal(err)
	}
	ref := NewArena(insts)
	raw := buf.Bytes()
	bad := fileHeaderLen + int(ref.snaps[1].off) // first record of the second period
	raw[bad] = raw[bad]&^classMask | 0x0f

	// Magic, version, period, count, trace digest, 27-byte snapshots,
	// then the SHA-256 of everything before it.
	idx := []byte("UCPI")
	idx = binary.LittleEndian.AppendUint32(idx, 1)
	idx = binary.LittleEndian.AppendUint32(idx, ArenaIndexPeriod)
	idx = binary.LittleEndian.AppendUint64(idx, ref.count)
	sum := sha256.Sum256(raw)
	idx = append(idx, sum[:]...)
	for _, s := range ref.snaps {
		idx = binary.LittleEndian.AppendUint64(idx, s.off)
		idx = binary.LittleEndian.AppendUint64(idx, s.expectPC)
		idx = binary.LittleEndian.AppendUint64(idx, s.lastMem)
		idx = append(idx, s.lastDst, s.lastSrc1, s.lastSrc2)
	}
	sum = sha256.Sum256(idx)
	idx = append(idx, sum[:]...)

	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".idx", idx, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := LoadArena(path)
	want := fmt.Sprintf("bad class 15 at record %d", ArenaIndexPeriod)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadArena = %v, want an error naming %q", err, want)
	}
	if a != nil {
		t.Fatal("LoadArena returned an arena with its error")
	}
}

// TestLoadArenaCorrupt truncates a v2 trace file at every byte: every
// prefix must fail cleanly (the index-building scan validates records),
// never panic or succeed. LoadArena is os.ReadFile plus parseArena, so
// the prefixes go to parseArena directly and two files check the wiring.
func TestLoadArenaCorrupt(t *testing.T) {
	full := compactFile(t)
	for cut := 0; cut < len(full); cut++ {
		if _, err := parseArena(full[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(full))
		}
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", full[:len(full)/2]},
		{"trailing garbage", append(append([]byte(nil), full...), 0x00)},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArena(path); err == nil {
			t.Fatalf("%s file loaded without error", tc.name)
		}
	}
}
