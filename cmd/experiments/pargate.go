package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"ucp/internal/harness"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// The interval-executor gates: one UCP run on crypto01 (the paper's
// headline configuration) executed by a reference engine and by the
// interval executor (internal/tpar) in this one process, so every
// wall-clock ratio compares like against like. Both gates run the same
// five passes: reference, parallel at one worker, parallel at every
// core, a checkpoint-capturing pass and a checkpoint-restoring pass.
//
// Gated bounds, also documented in EXPERIMENTS.md:
//   - worker-count invariance: the parallel digests at 1 worker and at
//     GOMAXPROCS workers must be byte-identical;
//   - checkpoint neutrality: the capture pass and the restore pass must
//     digest byte-identically to the cold parallel run, capture one
//     boundary blob per interval, and the restore pass must hit the
//     store once per interval;
//   - warming error: |parallel IPC − reference IPC| / reference IPC
//     < 2% (the same bar as the sampling gate — all subsample history);
//   - window gate only: the window plan measures exactly the expected
//     window count;
//   - scaling (multi-core hosts only): t(workers=1) / t(workers=N)
//     ≥ 0.7 · min(cores, intervals). On a single-core host the
//     intervals time-slice one CPU, so the record carries a note
//     instead. Scaling is parallel-vs-parallel: the reference-vs-
//     parallel speedup conflates parallelism with the warming pyramid
//     replacing the reference's own warmup.
const (
	parGateTrace     = "crypto01"
	parGateMaxIPCErr = 0.02
	parGateScaleFrac = 0.7
)

// parGate is one gate's geometry and labels.
type parGate struct {
	name     string // console header: "tpar gate", "wpar gate"
	bench    string // the BENCH record's description
	cfg      sim.Config
	warmup   uint64
	measure  uint64
	segments int // Job.Segments of the parallel passes
	// units is the number of intervals the parallel run measures — and
	// therefore of boundaries captured and restored.
	units    int
	unitName string // "segments", "windows"
	refName  string // the reference engine: "serial", "chain"
	errName  string // what the IPC error measures
}

// tparGate: full detail, 800K warmup + 700K measured, 4 segments at the
// fixed boundary warm (sim.DefaultBoundaryWarm), against the serial
// engine.
func tparGate() parGate {
	return parGate{
		name:     "tpar gate",
		bench:    fmt.Sprintf("tpar gate (%s, UCP full-detail, 4 segments, serial vs time-parallel)", parGateTrace),
		cfg:      harness.UCP(),
		warmup:   800_000,
		measure:  700_000,
		segments: 4,
		units:    4,
		unitName: "segments",
		refName:  "serial",
		errName:  "boundary-warming",
	}
}

// wparGate: sampled, 400K warmup + 4M measured in 20 windows, against
// the serial sampled controller's chain, whose machine carries state
// from window to window.
//
// The geometry is the conservative posture (zero Cache/BP budgets warm
// the entire skip zone, so no long-history predictor or cache state is
// ever dropped) with a 200K period. The conservative horizons matter
// doubly here: with bounded horizons each window would cold-start into
// a ~13% IPC gap against the chain on crypto01, while full-zone warming
// holds the window-independence error under the 2% bar. The detailed
// warm is 20K rather than the stock 5K: each measured window is only 5K
// instructions, so the per-window µ-op-cache and frontend transient is
// a far larger fraction of the measurement than in a full-detail
// segment; 20K of cycle-accurate warm absorbs it on both sides.
func wparGate() parGate {
	const windows, measure = 20, 4_000_000
	cfg := harness.UCP()
	cfg.Sampling = sim.ConservativeSampling()
	cfg.Sampling.PeriodInsts = measure / windows
	cfg.Sampling.WarmInsts = 20_000
	return parGate{
		name:     "wpar gate",
		bench:    fmt.Sprintf("wpar gate (%s, UCP sampled, %d windows, chain-serial vs window-parallel)", parGateTrace, windows),
		cfg:      cfg,
		warmup:   400_000,
		measure:  measure,
		segments: 2, // any value > 1 opts a sampled job into the executor
		units:    windows,
		unitName: "windows",
		refName:  "chain",
		errName:  "window-independence",
	}
}

// parPasses holds every pass's outcome.
type parPasses struct {
	cores                                int
	ref, w1, wN, capRes, resRes          sim.Result
	refDur, w1Dur, wNDur, capDur, resDur time.Duration
	captured, restored                   int
}

// parBench is the gate's BENCH record.
type parBench struct {
	benchEnvelope
	Units               int     `json:"units"`
	WarmupInsts         uint64  `json:"warmup_insts"`
	MeasureInsts        uint64  `json:"measure_insts"`
	ReferenceMs         int64   `json:"reference_ms"`
	ParallelW1Ms        int64   `json:"parallel_w1_ms"`
	ParallelWNMs        int64   `json:"parallel_wN_ms"`
	CaptureMs           int64   `json:"capture_ms"`
	RestoreMs           int64   `json:"restore_ms"`
	SpeedupVsReference  float64 `json:"speedup_vs_reference"`
	ScalingW1OverWN     float64 `json:"scaling_w1_over_wN"`
	ScalingBound        float64 `json:"scaling_bound,omitempty"`
	Note                string  `json:"note,omitempty"`
	IPCErrPct           float64 `json:"ipc_err_pct"`
	CheckpointsCaptured int     `json:"checkpoints_captured"`
	CheckpointsRestored int     `json:"checkpoints_restored"`
}

// check applies every bound to the passes and returns the violations
// plus the BENCH record. It is a pure function of its inputs, so the
// bounds are unit-testable without simulating anything.
func (g parGate) check(p parPasses) ([]string, parBench) {
	var violations []string
	digest := p.w1.DeterminismDigest()
	if p.wN.DeterminismDigest() != digest {
		violations = append(violations, fmt.Sprintf("workers=%d digest diverges from workers=1", p.cores))
	}
	if p.capRes.DeterminismDigest() != digest {
		violations = append(violations, "checkpoint-capturing digest diverges from cold")
	}
	if p.resRes.DeterminismDigest() != digest {
		violations = append(violations, "checkpoint-restored digest diverges from cold")
	}
	if g.cfg.Sampling.Enabled {
		got := 0
		if p.w1.Sampled != nil {
			got = p.w1.Sampled.Windows
		}
		if got != g.units {
			violations = append(violations, fmt.Sprintf("window plan produced %d windows, want %d", got, g.units))
		}
	}
	if p.captured != g.units {
		violations = append(violations, fmt.Sprintf(
			"capture pass published %d boundary checkpoint(s), want %d", p.captured, g.units))
	}
	if p.restored != g.units {
		violations = append(violations, fmt.Sprintf(
			"restore pass hit %d boundary checkpoint(s), want %d", p.restored, g.units))
	}

	ipcErr := relIPCErr(p.ref.IPC, p.wN.IPC)
	if ipcErr >= parGateMaxIPCErr {
		violations = append(violations, fmt.Sprintf("%s IPC error %.2f%% at or above the %.0f%% bound",
			g.errName, ipcErr*100, parGateMaxIPCErr*100))
	}

	scaling := ratio(p.w1Dur, p.wNDur)
	scaleBound := parGateScaleFrac * math.Min(float64(p.cores), float64(g.units))
	b := parBench{
		benchEnvelope:       newEnvelope(g.bench, p.cores),
		Units:               g.units,
		WarmupInsts:         g.warmup,
		MeasureInsts:        g.measure,
		ReferenceMs:         p.refDur.Milliseconds(),
		ParallelW1Ms:        p.w1Dur.Milliseconds(),
		ParallelWNMs:        p.wNDur.Milliseconds(),
		CaptureMs:           p.capDur.Milliseconds(),
		RestoreMs:           p.resDur.Milliseconds(),
		SpeedupVsReference:  roundTo(ratio(p.refDur, p.wNDur), 2),
		ScalingW1OverWN:     roundTo(scaling, 2),
		IPCErrPct:           roundTo(ipcErr*100, 3),
		CheckpointsCaptured: p.captured,
		CheckpointsRestored: p.restored,
	}
	if p.cores >= 2 {
		b.ScalingBound = roundTo(scaleBound, 2)
		if scaling < scaleBound {
			violations = append(violations, fmt.Sprintf(
				"scaling %.2fx below the %.2fx bound (0.7 x min(cores, %s))", scaling, scaleBound, g.unitName))
		}
	} else {
		b.Note = fmt.Sprintf("single-core host (GOMAXPROCS=%d): %s time-slice one CPU, scaling not gated", p.cores, g.unitName)
	}
	return violations, b
}

// runPasses executes the gate's passes, the parallel ones on cores
// workers.
func (g parGate) runPasses(w io.Writer, cores int) (parPasses, error) {
	p := parPasses{cores: cores}
	prof, ok := trace.ProfileByName(parGateTrace)
	if !ok {
		return p, fmt.Errorf("unknown profile %q", parGateTrace)
	}
	refJob := runq.Job{Config: g.cfg, Profile: prof, Warmup: g.warmup, Measure: g.measure}
	parJob := refJob
	parJob.Segments = g.segments
	fmt.Fprintf(w, "%s: %s, %d warmup + %d measured insts, %d %s, %d core(s)\n",
		g.name, parGateTrace, g.warmup, g.measure, g.units, g.unitName, p.cores)

	// Checkpoint passes share an on-disk store: the first captures one
	// blob per boundary, the second must rebuild every boundary from
	// them — and both must be byte-identical to the cold runs.
	ckptDir, err := os.MkdirTemp("", "ucp-pargate-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(ckptDir)
	// pass runs one job on a fresh pool, recording its result and
	// wall-clock; after the first failure every later pass is skipped.
	var runErr error
	pass := func(label string, opts runq.Options, job runq.Job, res *sim.Result, dur *time.Duration) *runq.Pool {
		if runErr != nil {
			return nil
		}
		pool := runq.New(opts)
		var jr runq.JobResult
		*dur = timed(func() { jr = pool.RunAll([]runq.Job{job})[0] })
		if jr.Err != nil {
			runErr = fmt.Errorf("%s pass: %v", label, jr.Err)
		}
		*res = jr.Result
		return pool
	}
	wN := fmt.Sprintf("workers=%d", p.cores)
	pass(g.refName, runq.Options{Workers: 1}, refJob, &p.ref, &p.refDur)
	pass("workers=1", runq.Options{Workers: 1}, parJob, &p.w1, &p.w1Dur)
	pass(wN, runq.Options{Workers: p.cores}, parJob, &p.wN, &p.wNDur)
	capPool := pass("capture", runq.Options{Workers: p.cores, CkptDir: ckptDir}, parJob, &p.capRes, &p.capDur)
	resPool := pass("restore", runq.Options{Workers: p.cores, CkptDir: ckptDir}, parJob, &p.resRes, &p.resDur)
	if runErr != nil {
		return p, runErr
	}
	p.captured, _ = capPool.CheckpointStats()
	_, p.restored = resPool.CheckpointStats()
	return p, nil
}

// gate assembles the gate's runner.
func (g parGate) gate() gate { return gateOf(g.runPasses, g.check, g.report) }

// report prints the summary.
func (g parGate) report(w io.Writer, p parPasses, b parBench) error {
	fmt.Fprintf(w, "  %s %dms  parallel w1 %dms  w%d %dms  capture %dms  restore %dms\n",
		g.refName, b.ReferenceMs, b.ParallelW1Ms, p.cores, b.ParallelWNMs, b.CaptureMs, b.RestoreMs)
	fmt.Fprintf(w, "  %s IPC %.4f  parallel IPC %.4f — %s error %.3f%% (bound: <%.0f%%)\n",
		g.refName, p.ref.IPC, p.wN.IPC, g.errName, b.IPCErrPct, parGateMaxIPCErr*100)
	if p.cores >= 2 {
		fmt.Fprintf(w, "  speedup vs %s %.1fx; scaling w1/w%d %.2fx (bound: >=%.2fx)\n",
			g.refName, b.SpeedupVsReference, p.cores, b.ScalingW1OverWN, b.ScalingBound)
	} else {
		fmt.Fprintf(w, "  speedup vs %s %.1fx; single-core host, scaling not gated\n", g.refName, b.SpeedupVsReference)
	}
	fmt.Fprintf(w, "  checkpoints: %d captured, %d restored\n", p.captured, p.restored)
	return nil
}
