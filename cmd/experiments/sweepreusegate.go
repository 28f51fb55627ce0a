package main

import (
	"fmt"
	"io"
	"time"

	"ucp/internal/harness"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// The sweep-reuse gate: one UCP stop-threshold ablation — the sweep
// shape of Fig. 15, whose configurations differ only in measurement
// phase parameters and therefore share a single functional-warm key —
// run twice over the same trace. The cold pass is a plain pool (no
// checkpoints), the warm pass a fresh pool with warm-checkpoint reuse
// enabled, so the sweep pays the functional fast-forward once instead
// of once per config. Both passes stream the trace from the generator.
// Both passes run in this one process, single-worker, back to back, so
// the wall-clock ratio compares serial work against serial work.
//
// Gated bounds, also documented in EXPERIMENTS.md:
//   - outcome neutrality: every config's determinism digest must be
//     byte-identical across the two passes;
//   - the warm pass must actually reuse: exactly one checkpoint
//     captured, every other job restored from it;
//   - wall-clock speedup (cold / warm) ≥ 3×.
const (
	sweepReuseTrace   = "crypto01"
	sweepReuseWarmup  = 6_000_000
	sweepReuseMeasure = 250_000
	sweepReuseMinSpd  = 3.0
)

// sweepReuseThresholds is the ablation axis. StopThreshold steers only
// the detailed-mode prefetch walk, so all points share one warm key.
var sweepReuseThresholds = []int{125, 250, 375, 500, 750, 1000, 1500, 2000, 3000, 4000}

// sweepReuseJobs builds the ablation sweep.
func sweepReuseJobs() ([]runq.Job, error) {
	cfgs := make([]sim.Config, len(sweepReuseThresholds))
	for i, t := range sweepReuseThresholds {
		cfgs[i] = harness.UCPThreshold(t, false)
	}
	return sampledSweep(sweepReuseTrace, sweepReuseWarmup, sweepReuseMeasure, cfgs)
}

// sampledSweep builds one job per config on the named trace, every one
// at the sampling geometry the sweep gates (sweep reuse, sweepd,
// autopilot) share.
func sampledSweep(traceName string, warmup, measure uint64, cfgs []sim.Config) ([]runq.Job, error) {
	prof, ok := trace.ProfileByName(traceName)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", traceName)
	}
	jobs := make([]runq.Job, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Sampling = sim.SamplingConfig{
			Enabled:       true,
			PeriodInsts:   250_000,
			DetailedInsts: 5_000,
			WarmInsts:     5_000,
			FFWarmInsts:   25_000,
		}
		jobs[i] = runq.Job{Config: cfg, Profile: prof, Warmup: warmup, Measure: measure}
	}
	return jobs, nil
}

// runSweepPass executes jobs through exec and returns the per-job
// digests plus the pass wall-clock.
func runSweepPass(exec runq.Runner, jobs []runq.Job) ([]string, time.Duration, error) {
	var results []runq.JobResult
	dur := timed(func() { results = exec.RunAll(jobs) })
	digests := make([]string, len(results))
	for i, jr := range results {
		if jr.Err != nil {
			return nil, 0, fmt.Errorf("%s: %v", jobs[i].Config.Name, jr.Err)
		}
		digests[i] = jr.Result.DeterminismDigest()
	}
	return digests, dur, nil
}

// sweepReusePasses holds both passes' outcomes.
type sweepReusePasses struct {
	cores              int
	jobs               []runq.Job
	cold, warm         []string // per-config digests
	coldDur, warmDur   time.Duration
	captured, restored int // the warm pass's checkpoint traffic
}

// sweepReuseBench is the gate's BENCH record.
type sweepReuseBench struct {
	benchEnvelope
	Configs             int     `json:"configs"`
	WarmupInsts         uint64  `json:"warmup_insts"`
	MeasureInsts        uint64  `json:"measure_insts"`
	MinSpeedupBound     float64 `json:"min_speedup_bound"`
	ColdMs              int64   `json:"cold_ms"`
	WarmMs              int64   `json:"warm_ms"`
	Speedup             float64 `json:"speedup"`
	CheckpointsCaptured int     `json:"checkpoints_captured"`
	CheckpointsRestored int     `json:"checkpoints_restored"`
	DigestsIdentical    bool    `json:"digests_identical"`
}

// runSweepReusePasses executes the cold and the warm pass, each on a
// fresh single-worker pool.
func runSweepReusePasses(w io.Writer, cores int) (sweepReusePasses, error) {
	jobs, err := sweepReuseJobs()
	p := sweepReusePasses{cores: cores, jobs: jobs}
	if err != nil {
		return p, err
	}
	fmt.Fprintf(w, "sweepreuse gate: %s, %d configs (stop-threshold ablation), %d warmup + %d sampled insts per run\n",
		sweepReuseTrace, len(jobs), sweepReuseWarmup, sweepReuseMeasure)
	if p.cold, p.coldDur, err = runSweepPass(runq.New(runq.Options{Workers: 1}), jobs); err != nil {
		return p, fmt.Errorf("cold pass: %v", err)
	}
	warmPool := runq.New(runq.Options{Workers: 1, Checkpoints: true})
	if p.warm, p.warmDur, err = runSweepPass(warmPool, jobs); err != nil {
		return p, fmt.Errorf("warm pass: %v", err)
	}
	p.captured, p.restored = warmPool.CheckpointStats()
	return p, nil
}

// checkSweepReuse applies every bound, returning the violations and the record.
func checkSweepReuse(p sweepReusePasses) ([]string, sweepReuseBench) {
	var violations []string
	diverged := diverging(p.jobs, p.cold, p.warm)
	for _, name := range diverged {
		violations = append(violations, fmt.Sprintf("%s: warm digest diverges from cold digest", name))
	}
	n := len(p.jobs)
	if p.captured != 1 || p.restored != n-1 {
		violations = append(violations, fmt.Sprintf(
			"warm pass captured %d checkpoint(s) and restored %d job(s), want 1 and %d",
			p.captured, p.restored, n-1))
	}
	speedup := ratio(p.coldDur, p.warmDur)
	if speedup < sweepReuseMinSpd {
		violations = append(violations, fmt.Sprintf(
			"speedup %.1fx below the %.0fx bound", speedup, sweepReuseMinSpd))
	}
	return violations, sweepReuseBench{
		benchEnvelope: newEnvelope(fmt.Sprintf(
			"sweep-reuse gate (%s, %d-config threshold ablation, cold vs checkpoint pool)", sweepReuseTrace, n), p.cores),
		Configs:             n,
		WarmupInsts:         sweepReuseWarmup,
		MeasureInsts:        sweepReuseMeasure,
		MinSpeedupBound:     sweepReuseMinSpd,
		ColdMs:              p.coldDur.Milliseconds(),
		WarmMs:              p.warmDur.Milliseconds(),
		Speedup:             roundTo(speedup, 2),
		CheckpointsCaptured: p.captured,
		CheckpointsRestored: p.restored,
		DigestsIdentical:    len(diverged) == 0,
	}
}

// reportSweepReuse prints the summary.
func reportSweepReuse(w io.Writer, _ sweepReusePasses, b sweepReuseBench) error {
	fmt.Fprintf(w, "  cold %dms (per-job fast-forward)  warm %dms (1 capture + %d restores) — %.1fx speedup (bound: ≥%.0fx)\n",
		b.ColdMs, b.WarmMs, b.CheckpointsRestored, b.Speedup, sweepReuseMinSpd)
	fmt.Fprintf(w, "  digests byte-identical cold vs warm across all %d configs: %v\n", b.Configs, b.DigestsIdentical)
	return nil
}
