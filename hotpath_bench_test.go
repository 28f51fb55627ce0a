package ucp_test

// Hot-path regression benchmark. BenchmarkSimQuick runs the quick trace
// set end to end under both the baseline and UCP configurations — the
// same work the check.sh hotpath gate times — and reports simulated
// instructions per second plus allocations per simulated instruction.
// The steady-state simulation loop is allocation-free; the allocs/inst
// figure amortizes one-time construction (predictor tables, trace
// programs) over the run and should stay near zero. check.sh runs this
// five times at -benchtime=1x with -benchmem and records the quartiles
// of insts/s, allocs/inst and bytes per instruction (B/op over
// insts/op) in BENCH_hotpath.json.

import (
	"runtime"
	"testing"

	"ucp"
)

func BenchmarkSimQuick(b *testing.B) {
	const quickWarmup, quickMeasure = 30_000, 30_000
	profiles := ucp.QuickProfiles()
	cfgs := []ucp.Config{ucp.Baseline(), ucp.WithUCP(ucp.DefaultUCP())}
	// Build trace programs outside the timed/counted region: they are
	// shared machinery, not per-simulation cost.
	for _, p := range profiles {
		program(b, p.Name)
	}
	var simulated uint64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			for _, cfg := range cfgs {
				prof, prog := program(b, p.Name)
				cfg.WarmupInsts, cfg.MeasureInsts = quickWarmup, quickMeasure
				src := ucp.Limit(ucp.NewWalker(prog),
					int(cfg.WarmupInsts+cfg.MeasureInsts)+100_000)
				if _, err := ucp.Run(cfg, src, prog, prof.Name); err != nil {
					b.Fatal(err)
				}
				simulated += quickWarmup + quickMeasure
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(simulated)/b.Elapsed().Seconds(), "insts/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(simulated), "allocs/inst")
	// With -benchmem, B/op over insts/op is the bytes allocated per
	// simulated instruction.
	b.ReportMetric(float64(simulated)/float64(b.N), "insts/op")
}
