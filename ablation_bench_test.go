package ucp_test

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports the metric delta between the chosen design point and an
// alternative, over the reduced trace set.

import (
	"testing"

	"ucp"
)

// BenchmarkAblationStreamSwitchHysteresis varies how many consecutive
// µ-op cache window hits build mode needs before returning to stream
// mode. Too little hysteresis thrashes modes; too much wastes stream
// opportunities.
func BenchmarkAblationStreamSwitchHysteresis(b *testing.B) {
	b.ReportAllocs()
	var imps [3]float64
	hits := []int{1, 3, 8}
	for i := 0; i < b.N; i++ {
		base := ucp.Baseline() // StreamSwitchHits = 3
		for j, h := range hits {
			cfg := ucp.Baseline()
			cfg.Name = "hyst"
			cfg.Frontend.StreamSwitchHits = h
			imps[j] = geomean(b, base, cfg)
		}
	}
	b.ReportMetric(imps[0], "hits1-%")
	b.ReportMetric(imps[1], "hits3-%")
	b.ReportMetric(imps[2], "hits8-%")
}

// BenchmarkAblationModeSwitchPenalty quantifies the stream/build switch
// penalty the paper charges (1 cycle, §V); a free switch bounds how much
// of the slowdown on switch-heavy traces it explains.
func BenchmarkAblationModeSwitchPenalty(b *testing.B) {
	b.ReportAllocs()
	var free, heavy float64
	for i := 0; i < b.N; i++ {
		cfg0 := ucp.Baseline()
		cfg0.Name = "switch0"
		cfg0.Frontend.ModeSwitchPenalty = 0
		free = geomean(b, ucp.Baseline(), cfg0)
		cfg3 := ucp.Baseline()
		cfg3.Name = "switch3"
		cfg3.Frontend.ModeSwitchPenalty = 3
		heavy = geomean(b, ucp.Baseline(), cfg3)
	}
	b.ReportMetric(free, "penalty0-%")
	b.ReportMetric(heavy, "penalty3-%")
}

// BenchmarkAblationAltFTQSize varies UCP's 24-entry Alt-FTQ (§IV-F).
func BenchmarkAblationAltFTQSize(b *testing.B) {
	b.ReportAllocs()
	var small, big float64
	for i := 0; i < b.N; i++ {
		mk := func(n int, name string) ucp.Config {
			u := ucp.DefaultUCP()
			u.AltFTQEntries = n
			c := ucp.WithUCP(u)
			c.Name = name
			return c
		}
		small = geomean(b, ucp.Baseline(), mk(8, "aftq8"))
		big = geomean(b, ucp.Baseline(), mk(64, "aftq64"))
	}
	b.ReportMetric(small, "aftq8-%")
	b.ReportMetric(big, "aftq64-%")
}

// BenchmarkAblationWalkWidth varies how many alternate-path addresses
// UCP generates per cycle (one 16-address window in the paper's model).
func BenchmarkAblationWalkWidth(b *testing.B) {
	b.ReportAllocs()
	var narrow, wide float64
	for i := 0; i < b.N; i++ {
		mk := func(w int, name string) ucp.Config {
			u := ucp.DefaultUCP()
			u.WalkWidth = w
			c := ucp.WithUCP(u)
			c.Name = name
			return c
		}
		narrow = geomean(b, ucp.Baseline(), mk(4, "walk4"))
		wide = geomean(b, ucp.Baseline(), mk(16, "walk16"))
	}
	b.ReportMetric(narrow, "walk4-%")
	b.ReportMetric(wide, "walk16-%")
}

// BenchmarkAblationUopMSHRs varies UCP's 32-entry µ-op cache MSHR file.
func BenchmarkAblationUopMSHRs(b *testing.B) {
	b.ReportAllocs()
	var small float64
	for i := 0; i < b.N; i++ {
		u := ucp.DefaultUCP()
		u.UopMSHRs = 4
		cfg := ucp.WithUCP(u)
		cfg.Name = "mshr4"
		base := ucp.WithUCP(ucp.DefaultUCP())
		small = geomean(b, base, cfg)
	}
	b.ReportMetric(small, "mshr4-vs-32-%")
}
