package sim

import (
	"testing"

	"ucp/internal/core"
	"ucp/internal/trace"
)

// BenchmarkWarmSkip measures the warming skip's cost per skipped
// instruction with the conservative geometry's unbounded horizons
// (every skipped instruction trains the predictors and warms the
// hierarchy), on a large- and a small-footprint trace, for the baseline
// and the UCP machine (which also trains Alt-BP):
//
//	go test -run '^$' -bench WarmSkip -benchtime 20x ./internal/sim
func BenchmarkWarmSkip(b *testing.B) {
	const span = 200_000
	for _, name := range []string{"srv203", "crypto01"} {
		prof, _ := trace.ProfileByName(name)
		prog, err := trace.BuildProgram(prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, withUCP := range []bool{false, true} {
			cfg, label := Baseline(), "baseline"
			if withUCP {
				cfg, label = WithUCP(core.DefaultConfig()), "ucp"
			}
			cfg.Sampling = ConservativeSampling()
			b.Run(name+"/"+label, func(b *testing.B) {
				m := NewMachine(cfg, trace.NewWalker(prog), prog)
				h := BoundaryWarm{FFInsts: 1}
				// One untimed span first, so the tables are past their
				// cold start.
				if err := m.fastForward(span+1, h); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := m.fastForward(m.skipped+m.be.Committed+span+1, h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*span), "ns/inst")
			})
		}
	}
}
