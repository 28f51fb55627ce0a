package main

import (
	"fmt"
	"io"
	"time"

	"ucp/internal/harness"
	"ucp/internal/sim"
)

// The sampled-simulation gate: a paired full-vs-sampled sweep over the
// machine configurations of the paper's headline comparison (no µ-op
// cache / baseline / UCP) on crypto01, the small-footprint trace the
// bounded-horizon FastSampling geometry is specified for. Both sides of
// every pair run in this one process, back to back, so the wall-clock
// ratio compares like against like (the box's thermal state drifts
// between processes by ±20%).
//
// Gated bounds, also documented in EXPERIMENTS.md:
//   - per-point |sampled IPC − full IPC| / full IPC < 2%
//   - aggregate wall-clock speedup (Σ full / Σ sampled) ≥ 10×
//   - the sampled side is deterministic: two passes must produce
//     byte-identical determinism digests.
const (
	sampleGateTrace   = "crypto01"
	sampleGateWarmup  = 400_000
	sampleGateMeasure = 25_000_000
	sampleGateMaxErr  = 0.02
	sampleGateMinSpd  = 10.0
)

var sampleGatePoints = []struct {
	label string
	cfg   sim.Config
}{
	{"no-uop-cache", harness.NoUop()},
	{"baseline", harness.BaselineCfg()},
	{"UCP", harness.UCP()},
}

// samplePasses holds every point's runs and the core count they ran on.
type samplePasses struct {
	cores  int
	points []samplePass
}

// samplePass is one point's runs: full detail, sampled, and the
// sampled repeat that must digest identically.
type samplePass struct {
	label                string
	full, sampled, again sim.Result
	fullDur, sampledDur  time.Duration
}

// sampleRow is one point of the BENCH record.
type sampleRow struct {
	Config          string  `json:"config"`
	FullIPC         float64 `json:"full_ipc"`
	SampledIPC      float64 `json:"sampled_ipc"`
	IPCErr          float64 `json:"ipc_err"`
	IPCCI95         float64 `json:"ipc_ci95"`
	Windows         int     `json:"windows"`
	FullMs          int64   `json:"full_ms"`
	SampledMs       int64   `json:"sampled_ms"`
	SkippedInsts    uint64  `json:"skipped_insts"`
	FunctionalInsts uint64  `json:"functional_insts"`
	DetailedInsts   uint64  `json:"detailed_insts"`
}

// sampleBench is the gate's BENCH record.
type sampleBench struct {
	benchEnvelope
	MaxIPCErrBound  float64     `json:"max_ipc_err_bound"`
	MinSpeedupBound float64     `json:"min_speedup_bound"`
	Points          []sampleRow `json:"points"`
	MaxIPCErr       float64     `json:"max_ipc_err"`
	FullTotalMs     int64       `json:"full_total_ms"`
	SampledTotalMs  int64       `json:"sampled_total_ms"`
	Speedup         float64     `json:"speedup"`
}

// runSamplePasses executes every point's runs.
func runSamplePasses(w io.Writer, cores int) (samplePasses, error) {
	passes := samplePasses{cores: cores}
	run, err := simRunner(sampleGateTrace, sampleGateWarmup+sampleGateMeasure+200_000)
	if err != nil {
		return passes, err
	}
	fmt.Fprintf(w, "sampling gate: %s, %d warmup + %d measured insts, FastSampling geometry\n",
		sampleGateTrace, sampleGateWarmup, sampleGateMeasure)
	for _, pt := range sampleGatePoints {
		cfg := pt.cfg
		cfg.WarmupInsts, cfg.MeasureInsts = sampleGateWarmup, sampleGateMeasure
		scfg := cfg
		scfg.Sampling = sim.FastSampling()
		p := samplePass{label: pt.label}
		p.fullDur = timed(func() { p.full, err = run(cfg) })
		if err != nil {
			return passes, fmt.Errorf("full %s: %v", pt.label, err)
		}
		p.sampledDur = timed(func() { p.sampled, err = run(scfg) })
		if err != nil {
			return passes, fmt.Errorf("sampled %s: %v", pt.label, err)
		}
		if p.again, err = run(scfg); err != nil {
			return passes, fmt.Errorf("sampled repeat %s: %v", pt.label, err)
		}
		passes.points = append(passes.points, p)
	}
	return passes, nil
}

// checkSample applies every bound, returning the violations and the record.
func checkSample(passes samplePasses) ([]string, sampleBench) {
	var violations []string
	b := sampleBench{
		benchEnvelope: newEnvelope(fmt.Sprintf("sampled-simulation gate (%s, %d+%d insts, full vs FastSampling)",
			sampleGateTrace, sampleGateWarmup, sampleGateMeasure), passes.cores),
		MaxIPCErrBound:  sampleGateMaxErr,
		MinSpeedupBound: sampleGateMinSpd,
	}
	var totalFull, totalSampled time.Duration
	maxErr := 0.0
	for _, p := range passes.points {
		if p.sampled.DeterminismDigest() != p.again.DeterminismDigest() {
			violations = append(violations, fmt.Sprintf("%s: two sampled passes digest differently", p.label))
		}
		relErr := relIPCErr(p.full.IPC, p.sampled.IPC)
		if relErr >= sampleGateMaxErr {
			violations = append(violations, fmt.Sprintf(
				"%s: IPC error %.2f%% exceeds the %.0f%% bound", p.label, relErr*100, sampleGateMaxErr*100))
		}
		maxErr = max(maxErr, relErr)
		totalFull += p.fullDur
		totalSampled += p.sampledDur
		s := p.sampled.Sampled
		b.Points = append(b.Points, sampleRow{
			Config: p.label, FullIPC: roundTo(p.full.IPC, 4), SampledIPC: roundTo(p.sampled.IPC, 4),
			IPCErr: roundTo(relErr, 4), IPCCI95: roundTo(s.IPCCI95, 4), Windows: s.Windows,
			FullMs: p.fullDur.Milliseconds(), SampledMs: p.sampledDur.Milliseconds(),
			SkippedInsts: s.SkippedInsts, FunctionalInsts: s.FFInsts, DetailedInsts: s.DetailedInsts,
		})
	}
	speedup := ratio(totalFull, totalSampled)
	if speedup < sampleGateMinSpd {
		violations = append(violations, fmt.Sprintf(
			"aggregate speedup %.1fx below the %.0fx bound", speedup, sampleGateMinSpd))
	}
	b.MaxIPCErr = roundTo(maxErr, 4)
	b.FullTotalMs, b.SampledTotalMs = totalFull.Milliseconds(), totalSampled.Milliseconds()
	b.Speedup = roundTo(speedup, 2)
	return violations, b
}

// reportSample prints the summary.
func reportSample(w io.Writer, _ samplePasses, b sampleBench) error {
	for _, r := range b.Points {
		fmt.Fprintf(w, "  %-14s full IPC %.4f (%5dms)  sampled IPC %.4f ±%.4f (%4dms, %d windows)  err %.2f%%\n",
			r.Config, r.FullIPC, r.FullMs, r.SampledIPC, r.IPCCI95, r.SampledMs, r.Windows, r.IPCErr*100)
	}
	fmt.Fprintf(w, "  aggregate: full %dms, sampled %dms — %.1fx speedup (bound: ≥%.0fx, err <%.0f%%)\n",
		b.FullTotalMs, b.SampledTotalMs, b.Speedup, sampleGateMinSpd, sampleGateMaxErr*100)
	return nil
}
