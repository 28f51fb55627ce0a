package sim_test

import (
	"strings"
	"testing"

	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// digestOnce regenerates the synthetic program from the profile seed
// and runs a short seeded simulation, returning the full stats digest.
func digestOnce(t *testing.T, profName string, insts uint64) string {
	t.Helper()
	prof, ok := trace.ProfileByName(profName)
	if !ok {
		t.Fatalf("unknown profile %q", profName)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("building %s: %v", profName, err)
	}
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts = insts / 2
	cfg.MeasureInsts = insts - insts/2
	src := trace.NewLimit(trace.NewWalker(prog), int(insts)+100_000)
	res, err := sim.Run(cfg, src, prog, profName)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return res.DeterminismDigest()
}

// TestDeterministicDigest is the runtime determinism check: two
// complete 60K-instruction UCP simulations from the same seed, each
// regenerating the program from the profile, must produce
// byte-identical stats digests. Any wall-clock, global-rand, or
// map-order dependence anywhere in the pipeline breaks this test.
func TestDeterministicDigest(t *testing.T) {
	const insts = 60_000
	a := digestOnce(t, "srv203", insts)
	b := digestOnce(t, "srv203", insts)
	if a != b {
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		n := min(len(al), len(bl))
		for i := 0; i < n; i++ {
			if al[i] != bl[i] {
				t.Fatalf("digests diverge at line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("digests differ in length: %d vs %d lines", len(al), len(bl))
	}
	if len(a) == 0 {
		t.Fatal("digest is empty; Result.DeterminismDigest renders nothing")
	}
}

// TestDigestCoversHistograms guards the digest's coverage: the two
// frontend histograms must appear, otherwise a nondeterministic render
// path could slip past the harness.
func TestDigestCoversHistograms(t *testing.T) {
	d := digestOnce(t, "srv203", 20_000)
	for _, want := range []string{"stream length", "refill latency", "ipc=", "insts="} {
		if !strings.Contains(d, want) {
			t.Errorf("digest missing %q section", want)
		}
	}
}
