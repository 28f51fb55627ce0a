package sim

import (
	"bytes"
	"fmt"
	"testing"

	"ucp/internal/core"
	"ucp/internal/isa"
	"ucp/internal/trace"
)

// refWarmer is the per-instruction reference for the batched warming
// skip: it warms every consumer the moment the trace reports an event,
// in program order, as the skip did before it was batched. cache=false
// is a predictor-only zone.
type refWarmer struct {
	m     *Machine
	cache bool
}

func (w refWarmer) WarmFetch(lineAddr uint64) {
	if w.cache && !w.m.cfg.Ideal.UopAlwaysHit {
		w.m.mem.WarmFetchInst(lineAddr, w.m.cycle)
	}
}

func (w refWarmer) WarmMem(addr uint64) {
	if w.cache {
		w.m.mem.WarmData(addr, w.m.cycle)
	}
}

func (w refWarmer) WarmCond(pc uint64, taken bool) {
	predTaken := w.m.fe.WarmCond(pc, taken)
	if w.m.ucp != nil {
		w.m.ucp.WarmCond(pc, taken, predTaken)
	}
}

// refSkipZone is skipZone's reference: one unchunked SkipWarmN call
// through refWarmer.
func (m *Machine) refSkipZone(n uint64, kind zoneKind) uint64 {
	if kind == zonePure {
		return uint64(trace.SkipN(m.src, int(n)))
	}
	return uint64(trace.SkipWarmN(m.src, int(n), refWarmer{m, kind == zoneCache}))
}

// TestWarmSkipMatchesReference pins the batched warming skip to the
// per-instruction reference: after the same sequence of zones of every
// kind, interleaved with functional commits, the captured warm state is
// byte-identical and the stream stands at the same instruction. Chunk
// sizes of 1, an odd size and the default move the seams to every
// position; the configurations cover the demand predictor alone and with
// Alt-BP, an always-hit µ-op cache (no L1I warming), an inclusive µ-op
// cache (L1I warm evictions invalidate µ-op lines), and a UCP machine
// that learns its code from the stream (the generic SkipWarmN loop).
func TestWarmSkipMatchesReference(t *testing.T) {
	prof, ok := trace.ProfileByName("srv203")
	if !ok {
		t.Fatal("profile srv203 missing")
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	ucp := WithUCP(core.DefaultConfig())
	alwaysHit := Baseline()
	alwaysHit.Ideal.UopAlwaysHit = true
	inclusive := WithUCP(core.DefaultConfig())
	inclusive.InclusiveUop = true
	cases := []struct {
		name    string
		cfg     Config
		learned bool
	}{
		{"baseline", Baseline(), false},
		{"ucp", ucp, false},
		{"uop-always-hit", alwaysHit, false},
		{"inclusive-uop", inclusive, false},
		{"ucp-learned-code", ucp, true},
	}
	// Each zone is followed by ff functionally committed instructions.
	// The back-to-back cache zones pin the zone-start rule: a zone
	// reports its first fetch line even when the previous zone ended on
	// it.
	zones := []struct {
		n    uint64
		kind zoneKind
		ff   uint64
	}{
		{20_000, zoneCache, 3_000}, {3_001, zonePure, 700}, {9_999, zoneBP, 700},
		{14_000, zoneCache, 0}, {1, zoneCache, 0}, {4_096, zoneCache, 3_000}, {5_000, zoneBP, 700}, {30_000, zoneCache, 0},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Sampling = ConservativeSampling()
		build := func() *Machine {
			var code core.CodeInfo = prog
			if tc.learned {
				code = nil
			}
			return NewMachine(cfg, trace.NewWalker(prog), code)
		}
		// run drives the zone sequence with skip. The functional
		// stretches fill the µ-op cache, so inclusive invalidations have
		// lines to hit. It returns the
		// captured warm state, the next instruction, and the µ-op
		// invalidations the skips themselves caused.
		run := func(m *Machine, skip func(n uint64, kind zoneKind) uint64) ([]byte, isa.Inst, uint64) {
			var skipped, ff, inval uint64
			for _, z := range zones {
				before := m.uop.Stats().Invalidations
				n := skip(z.n, z.kind)
				if n != z.n {
					t.Fatalf("%s: zone skipped %d of %d", tc.name, n, z.n)
				}
				inval += m.uop.Stats().Invalidations - before
				skipped += n
				m.cycle += n
				done, err := m.ffRun(z.ff)
				if err != nil {
					t.Fatal(err)
				}
				ff += done
			}
			next, _ := m.src.Next()
			return m.captureWarm(skipped, ff), next, inval
		}
		ref := build()
		want, wantNext, inval := run(ref, ref.refSkipZone)
		if cfg.InclusiveUop && inval == 0 {
			t.Errorf("%s: the skip invalidated no µ-op lines, the inclusive case is not exercised", tc.name)
		}
		for _, chunk := range []int{1, 977, warmChunk} {
			t.Run(fmt.Sprintf("%s/chunk=%d", tc.name, chunk), func(t *testing.T) {
				m := build()
				got, next, _ := run(m, func(n uint64, kind zoneKind) uint64 { return m.skipZone(n, kind, chunk) })
				if !bytes.Equal(got, want) {
					t.Fatalf("captured warm state differs from the per-instruction reference (%d vs %d bytes)", len(got), len(want))
				}
				if next != wantNext {
					t.Fatalf("stream position differs: next PC %#x, reference %#x", next.PC, wantNext.PC)
				}
			})
		}
	}
}
