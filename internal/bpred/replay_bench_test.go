package bpred

import (
	"testing"

	"ucp/internal/isa"
	"ucp/internal/trace"
)

// condStream records the first n conditional branches (PC and outcome)
// of a built-in profile's instruction stream.
func condStream(tb testing.TB, profile string, n int) (pcs []uint64, taken []bool) {
	tb.Helper()
	prof, ok := trace.ProfileByName(profile)
	if !ok {
		tb.Fatalf("no profile %s", profile)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		tb.Fatal(err)
	}
	w := trace.NewWalker(prog)
	pcs, taken = make([]uint64, 0, n), make([]bool, 0, n)
	for len(pcs) < n {
		in, _ := w.Next()
		if in.Class == isa.CondBranch {
			pcs = append(pcs, in.PC)
			taken = append(taken, in.Taken)
		}
	}
	return pcs, taken
}

// replayChunk is the number of conditional branches per replay pass:
// about what one 4096-instruction warming-skip chunk holds on srv203.
const replayChunk = 512

// BenchmarkPredictorReplay measures the direction predictors' cost per
// conditional branch as the UCP machine's warming skip drives them: a
// recorded srv203 stream replayed a chunk at a time, first through the
// 64 KB demand TAGE-SC-L (predict, train, push the outcome), then
// through the 8 KB Alt-BP (predict, train, push the demand predictor's
// direction into its shadow history). One untimed replay first takes
// the tables past their cold start.
//
//	go test -run '^$' -bench PredictorReplay -benchtime 10x ./internal/bpred
func BenchmarkPredictorReplay(b *testing.B) {
	pcs, taken := condStream(b, "srv203", 100_000)
	demand, alt := NewTageSCL(Config64KB()), NewTageSCL(Config8KB())
	predTaken := make([]bool, replayChunk)
	var p Prediction
	replay := func() {
		for lo := 0; lo < len(pcs); lo += replayChunk {
			hi := min(lo+replayChunk, len(pcs))
			for i := lo; i < hi; i++ {
				demand.PredictInto(&p, demand.Hist(), pcs[i])
				demand.Update(pcs[i], taken[i], &p)
				demand.PushHistory(pcs[i], taken[i])
				predTaken[i-lo] = p.Taken
			}
			for i := lo; i < hi; i++ {
				alt.PredictInto(&p, alt.Hist(), pcs[i])
				alt.Update(pcs[i], taken[i], &p)
				alt.Hist().Push(pcs[i], predTaken[i-lo])
			}
		}
	}
	replay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pcs)), "ns/branch")
}
