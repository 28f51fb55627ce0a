package main

import (
	"strings"
	"testing"
	"time"

	"ucp/internal/sim"
)

// passingPasses returns passes that satisfy every bound of g on a host
// with the given core count.
func passingPasses(g parGate, cores int) parPasses {
	res := sim.Result{Name: "UCP", Insts: 1000, Cycles: 2000, IPC: 0.5}
	if g.cfg.Sampling.Enabled {
		res.Sampled = &sim.SampledStats{Windows: g.units}
	}
	return parPasses{
		cores: cores,
		ref:   sim.Result{IPC: 0.501},
		w1:    res, wN: res, capRes: res, resRes: res,
		refDur: time.Second, w1Dur: 4 * time.Second, wNDur: time.Second,
		captured: g.units, restored: g.units,
	}
}

// TestParGateCheck pins each bound of both gates: a passing set of
// passes yields no violation, and breaking one thing yields exactly the
// matching violation.
func TestParGateCheck(t *testing.T) {
	cases := []struct {
		name  string
		gate  parGate
		cores int
		mut   func(*parPasses)
		want  string // "" = no violation
	}{
		{"tpar passes", tparGate(), 1, func(*parPasses) {}, ""},
		{"wpar passes", wparGate(), 4, func(*parPasses) {}, ""},
		{"digest diverges", tparGate(), 1, func(p *parPasses) { p.wN.Cycles++ }, "workers=1 digest diverges"},
		{"capture diverges", tparGate(), 1, func(p *parPasses) { p.capRes.Cycles++ }, "checkpoint-capturing digest diverges"},
		{"restore diverges", wparGate(), 1, func(p *parPasses) { p.resRes.Insts++ }, "checkpoint-restored digest diverges"},
		{"missed captures", tparGate(), 1, func(p *parPasses) { p.captured = 3 }, "published 3 boundary checkpoint(s), want 4"},
		{"missed restores", wparGate(), 1, func(p *parPasses) { p.restored = 19 }, "hit 19 boundary checkpoint(s), want 20"},
		{"ipc error", tparGate(), 1, func(p *parPasses) { p.ref.IPC = 0.52 }, "boundary-warming IPC error 3.85%"},
		{"window count", wparGate(), 1, func(p *parPasses) {
			for _, r := range []*sim.Result{&p.w1, &p.wN, &p.capRes, &p.resRes} {
				r.Sampled = &sim.SampledStats{Windows: 19}
			}
		}, "window plan produced 19 windows, want 20"},
		{"scaling", tparGate(), 4, func(p *parPasses) { p.w1Dur = 2 * time.Second }, "scaling 2.00x below the 2.80x bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := passingPasses(tc.gate, tc.cores)
			tc.mut(&p)
			violations, _ := tc.gate.check(p)
			if tc.want == "" {
				if len(violations) != 0 {
					t.Fatalf("unexpected violations: %q", violations)
				}
				return
			}
			if len(violations) == 0 || !strings.Contains(strings.Join(violations, "\n"), tc.want) {
				t.Fatalf("violations %q, want one containing %q", violations, tc.want)
			}
		})
	}
}
