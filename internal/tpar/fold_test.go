package tpar

import (
	"strings"
	"testing"

	"ucp/internal/core"
	"ucp/internal/sim"
)

// TestResultMissingSegment: folding with a hole in the interval list
// must fail loudly, naming the missing interval — a silently short
// merge would report wrong numbers with a valid-looking digest.
func TestResultMissingSegment(t *testing.T) {
	sampled := sim.WithUCP(core.DefaultConfig())
	sampled.Sampling = sim.SamplingConfig{Enabled: true, PeriodInsts: 10, DetailedInsts: 10}
	for _, m := range []struct {
		name, unit string
		cfg        sim.Config
	}{
		{"segments", "segment", sim.WithUCP(core.DefaultConfig())},
		{"windows", "window", sampled},
	} {
		t.Run(m.name, func(t *testing.T) {
			cells := []*sim.SegmentResult{
				{Index: 0, Start: 0, End: 10, Insts: 10, Cycles: 20},
				nil,
				{Index: 2, Start: 20, End: 30, Insts: 10, Cycles: 20},
			}
			want := "missing " + m.unit + " 1 of 3"
			if _, err := fold(m.cfg, "x", cells); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("hole not detected: err = %v, want %q", err, want)
			}
			r, err := fold(m.cfg, "x", cells[:1])
			if err != nil {
				t.Fatalf("one-interval fold failed: %v", err)
			}
			if r.TimePar.Segments != 1 || r.Insts != 10 || (r.Sampled != nil) != m.cfg.Sampling.Enabled {
				t.Errorf("one-interval fold = %+v", r)
			}
		})
	}
}
