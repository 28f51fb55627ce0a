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
	// A data address one past the address width: rejected.
	f.Add(widthFile(f, func(in *isa.Inst) { in.Class, in.MemAddr = isa.Load, 1<<isa.AddrBits }))
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

// fuzzCodeBudget caps the budgeted code size (Funcs×AvgFuncInsts) of a
// fuzzed profile that is built and walked, so each input stays cheap.
const fuzzCodeBudget = 20_000

// FuzzBuildProgram draws every Profile field: a profile either fails
// Validate, or builds and walks 10K instructions through Next and 10K
// through SkipWarm without panicking.
func FuzzBuildProgram(f *testing.F) {
	add := func(p Profile) {
		f.Add(p.Seed, p.Funcs, p.AvgFuncInsts, p.FlatFrac, p.CondPatternFrac, p.CondHistoryFrac,
			p.CondRandomFrac, p.RandomTakenP, p.HistMaskBitsMin, p.HistMaskBitsMax, p.LoopTripMean,
			p.FixedTripFrac, p.IndirectFrac, p.IndHistFrac, p.DataWSS, p.StreamFrac, p.LoadFrac, p.StoreFrac)
	}
	for _, p := range QuickProfiles() {
		add(p)
	}
	crypto, _ := ProfileByName("crypto01")
	for _, edit := range []func(p *Profile){
		func(p *Profile) { p.Funcs = 2_000_000_000 },
		func(p *Profile) { p.LoopTripMean, p.FixedTripFrac = -1, 0.5 },
		func(p *Profile) { p.Funcs, p.DataWSS, p.LoopTripMean = 1, 0, 0 },
		func(p *Profile) { p.HistMaskBitsMin, p.HistMaskBitsMax = 0, maxHistMaskBits },
		func(p *Profile) { p.LoadFrac, p.StoreFrac, p.StreamFrac, p.DataWSS = 1, 1, 1, maxDataWSS },
		func(p *Profile) { p.LoopTripMean, p.FixedTripFrac, p.CondRandomFrac = maxLoopTripMean, 0, 1 },
	} {
		p := crypto
		edit(&p)
		add(p)
	}
	f.Fuzz(func(t *testing.T, seed uint64, funcs, avg int, flat, pat, hist, rnd, takenP float64,
		hmin, hmax int, trip, fixed, ind, indHist float64, wss uint64, stream, load, store float64) {
		p := Profile{
			Name: "fuzz", Seed: seed, Funcs: funcs, AvgFuncInsts: avg, FlatFrac: flat,
			CondPatternFrac: pat, CondHistoryFrac: hist, CondRandomFrac: rnd, RandomTakenP: takenP,
			HistMaskBitsMin: hmin, HistMaskBitsMax: hmax, LoopTripMean: trip, FixedTripFrac: fixed,
			IndirectFrac: ind, IndHistFrac: indHist, DataWSS: wss, StreamFrac: stream,
			LoadFrac: load, StoreFrac: store,
		}
		if p.Validate() != nil || p.Funcs*p.AvgFuncInsts > fuzzCodeBudget {
			return
		}
		prog, err := BuildProgram(p)
		if err != nil {
			t.Fatalf("valid profile %+v did not build: %v", p, err)
		}
		w := NewWalker(prog)
		for range 10_000 {
			w.Next()
		}
		w.SkipWarm(10_000, &countWarmer{})
	})
}
