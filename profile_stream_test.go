package ucp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"ucp/internal/isa"
	"ucp/internal/trace"
)

// streamGolden pins the generated instruction stream of every built-in
// profile: a change to the program image or the walker that moves one
// instruction, address or branch outcome fails it.
const streamGolden = "testdata/profile_stream.golden"

// customWorkloadProfile is the profile examples/customworkload builds;
// keep the two literals equal.
var customWorkloadProfile = trace.Profile{
	Name: "myservice", Seed: 2024,
	Funcs: 300, AvgFuncInsts: 160, FlatFrac: 0.6,
	CondPatternFrac: 0.02, CondHistoryFrac: 0.12,
	CondRandomFrac: 0.06, RandomTakenP: 0.35,
	HistMaskBitsMin: 1, HistMaskBitsMax: 3,
	LoopTripMean: 6, FixedTripFrac: 0.5,
	IndirectFrac: 0.12, IndHistFrac: 0.4,
	DataWSS: 8 << 20, StreamFrac: 0.25,
	LoadFrac: 0.25, StoreFrac: 0.12,
}

// hashWarmer hashes everything a warming skip reports, tagged by kind.
type hashWarmer struct{ h hash.Hash }

func (w hashWarmer) put(tag byte, v uint64) {
	var b [9]byte
	b[0] = tag
	binary.LittleEndian.PutUint64(b[1:], v)
	w.h.Write(b[:])
}

func (w hashWarmer) WarmFetch(line uint64) { w.put('f', line) }
func (w hashWarmer) WarmMem(addr uint64)   { w.put('m', addr) }
func (w hashWarmer) WarmCond(pc uint64, taken bool) {
	w.put('c', pc)
	w.put('t', b2u(taken))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// hashNext hashes every isa.Inst field of the next n instructions.
func hashNext(w *trace.Walker, n int) string {
	h := sha256.New()
	var b [32]byte
	for i := 0; i < n; i++ {
		in, _ := w.Next()
		binary.LittleEndian.PutUint64(b[0:], in.PC)
		binary.LittleEndian.PutUint64(b[8:], in.Target)
		binary.LittleEndian.PutUint64(b[16:], in.MemAddr)
		b[24], b[25], b[26], b[27], b[28] = uint8(in.Class), uint8(b2u(in.Taken)), in.Dst, in.Src1, in.Src2
		h.Write(b[:29])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// streamLine walks prof: 300K Next instructions, a 300K warming skip,
// a plain 300K skip, then 1K Next instructions, one hash per stage.
func streamLine(t *testing.T, prof trace.Profile) string {
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("%s: %v", prof.Name, err)
	}
	w := trace.NewWalker(prog)
	next := hashNext(w, 300_000)
	wh := hashWarmer{sha256.New()}
	w.SkipWarm(300_000, wh)
	warm := fmt.Sprintf("%x", wh.h.Sum(nil))
	w.Skip(300_000)
	after := hashNext(w, 1_000)
	return fmt.Sprintf("%s next=%s warm=%s after=%s", prof.Name, next, warm, after)
}

// TestProfileStreamGolden compares each profile's stream hashes with
// the golden file. A mismatch prints the new line; replace the golden
// only for an intended change to the generated workloads.
func TestProfileStreamGolden(t *testing.T) {
	profs := append(trace.DefaultProfiles(), customWorkloadProfile)
	data, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Error(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if len(want) != len(profs) {
		t.Errorf("%s has %d profiles, want %d", streamGolden, len(want), len(profs))
	}
	for _, p := range profs {
		if got := streamLine(t, p); got != want[p.Name] {
			t.Errorf("%s stream changed:\ngot  %s\nwant %s", p.Name, got, want[p.Name])
		}
	}
}

// TestProfileAddressesInWidth walks every built-in profile and the
// custom example for 2M instructions: every PC, branch target and
// memory address must lie below 1<<isa.AddrBits, the width the tag
// arrays hold.
func TestProfileAddressesInWidth(t *testing.T) {
	profs := append(trace.DefaultProfiles(), customWorkloadProfile)
	if len(profs) != 19 {
		t.Errorf("walking %d profiles, want the 18 built-in ones and the custom example", len(profs))
	}
	for _, p := range profs {
		prog, err := trace.BuildProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		w := trace.NewWalker(prog)
		batch := make([]isa.Inst, 4096)
		var top uint64
		for n := 0; n < 2_000_000; n += len(batch) {
			for _, in := range batch[:w.NextBatch(batch)] {
				top = max(top, in.PC, in.Target, in.MemAddr)
			}
		}
		if top>>isa.AddrBits != 0 {
			t.Errorf("%s: address %#x outside the %d-bit address width", p.Name, top, isa.AddrBits)
		}
	}
}
