package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"ucp/internal/autopilot"
	"ucp/internal/harness"
	"ucp/internal/runq"
	"ucp/internal/sim"
)

// The autopilot gate has two halves, both documented in EXPERIMENTS.md.
//
// Part A — adaptive-sampling soundness. One adaptive run (FastSampling
// geometry plus a CI target) on crypto01 against the full-detail
// reference and the fixed-geometry sampled run:
//   - the adaptive run must report its target met, using strictly fewer
//     windows than the fixed geometry's budget;
//   - the full-detail IPC must lie inside the adaptive run's own
//     claimed 95% interval (the CI is honest, not just narrow);
//   - two adaptive passes must produce byte-identical digests.
//
// Part B — confidence-pruned search efficiency. A seeded 10-config
// ablation on srv203 searched with autopilot.Search against the
// autopilot.Exhaustive reference (every config straight at the final
// target):
//   - both strategies must name the same winner;
//   - the search must spend at least autopilotMinSpendRatio× fewer
//     simulated instructions (measured-region stream advance) than
//     exhaustive;
//   - a second Search over a fresh pool must reproduce the winner, the
//     round count, the spend, and the winning digest byte-for-byte.
//
// The gate also regenerates the autopilot Pareto section of
// EXPERIMENTS_RESULTS.md between its markers.
const (
	// Part A: crypto01 is the trace the FastSampling geometry is
	// specified for, and the only one with a full-detail reference cheap
	// enough to recompute per gate run.
	adaptiveGateTrace   = "crypto01"
	adaptiveGateWarmup  = 400_000
	adaptiveGateMeasure = 25_000_000
	adaptiveGateTarget  = 0.02 // relative 95% half-width target

	// Part B: int01 pairs clear grid separation (the µ-op cache matters:
	// no-uop 2.61 → ideal 3.88 IPC) with low per-window variance
	// (~8% relative sd at this geometry), so the coarse probes stop
	// after a handful of windows while the final target stays meetable
	// inside the 80-window budget — both are what give pruning its
	// leverage. The server traces are the counterexample: srv203's ~27%
	// per-window sd makes even a ±4% target cost the whole budget, and a
	// search degenerates to exhaustive plus overhead.
	autopilotGateTrace     = "int01"
	autopilotGateWarmup    = 400_000
	autopilotGateMeasure   = 20_000_000
	autopilotGateCoarse    = 0.05
	autopilotGateFinal     = 0.02
	autopilotGateMinWin    = 0 // sim defaults
	autopilotMinSpendRatio = 2.0
)

// The gate regenerates the Pareto section of autopilotResultsPath
// between these markers.
const (
	autopilotResultsPath = "EXPERIMENTS_RESULTS.md"
	autopilotBeginMarker = "<!-- BEGIN GENERATED: autopilot-pareto -->"
	autopilotEndMarker   = "<!-- END GENERATED: autopilot-pareto -->"
)

// autopilotGrid is the seeded ablation: the paper's headline reference
// points (no µ-op cache, baseline, ideal µ-op cache) plus the UCP
// threshold/estimator axes of Figs. 12 and 15. The ideal µ-op cache is
// the expected winner by a wide margin, so the other nine candidates
// are pruning fodder — which is the point: the gate measures how much
// of the exhaustive spend the search avoids without changing the
// answer.
func autopilotGrid() ([]runq.Job, *runq.Job, error) {
	jobs, err := sampledSweep(autopilotGateTrace, autopilotGateWarmup, autopilotGateMeasure, []sim.Config{
		harness.NoUop(),
		harness.BaselineCfg(),
		harness.IdealUop(),
		harness.UCPThreshold(125, false),
		harness.UCPThreshold(250, false),
		harness.UCP(),
		harness.UCPThreshold(1000, false),
		harness.UCPThreshold(2000, false),
		harness.UCPNoInd(),
		harness.UCPTageConf(),
	})
	if err != nil {
		return nil, nil, err
	}
	baseline := jobs[1] // the Δ reference: grid point 1, harness.BaselineCfg()
	return jobs, &baseline, nil
}

// autopilotPasses holds both halves' outcomes.
type autopilotPasses struct {
	cores int
	// Part A: the full-detail reference, the fixed-geometry sampled run,
	// and the adaptive run twice.
	full, fixed, adaptive, again sim.Result
	// Part B: the search, the exhaustive reference, and the repeat
	// search, each on a fresh pool.
	search, exhaustive, searchAgain *autopilot.Report
}

// adaptiveRecord is Part A of the BENCH record.
type adaptiveRecord struct {
	Trace           string  `json:"trace"`
	TargetCI        float64 `json:"target_ci"`
	FullIPC         float64 `json:"full_ipc"`
	AdaptiveIPCMean float64 `json:"adaptive_ipc_mean"`
	AdaptiveIPCCI95 float64 `json:"adaptive_ipc_ci95"`
	AchievedRelHalf float64 `json:"achieved_rel_half"`
	FixedWindows    int     `json:"fixed_windows"`
	AdaptiveWindows int     `json:"adaptive_windows"`
	WindowBudget    int     `json:"window_budget"`
	TargetMet       bool    `json:"target_met"`
}

// searchRecord is Part B of the BENCH record.
type searchRecord struct {
	Trace                string  `json:"trace"`
	Configs              int     `json:"configs"`
	CoarseTargetCI       float64 `json:"coarse_target_ci"`
	FinalTargetCI        float64 `json:"final_target_ci"`
	Winner               string  `json:"winner"`
	Rounds               int     `json:"rounds"`
	Pruned               int     `json:"pruned"`
	SearchSpentInsts     uint64  `json:"search_spent_insts"`
	ExhaustiveSpentInsts uint64  `json:"exhaustive_spent_insts"`
	SpendRatio           float64 `json:"spend_ratio"`
	MinSpendRatioBound   float64 `json:"min_spend_ratio_bound"`
}

// autopilotBench is the gate's BENCH record.
type autopilotBench struct {
	benchEnvelope
	Adaptive  adaptiveRecord `json:"adaptive"`
	Autopilot searchRecord   `json:"autopilot"`
}

// runAutopilotPasses executes both halves.
func runAutopilotPasses(w io.Writer, cores int) (autopilotPasses, error) {
	p := autopilotPasses{cores: cores}
	fmt.Fprintf(w, "autopilot gate: adaptive soundness (%s, %d+%d insts, FastSampling + ±%.0f%% target)\n",
		adaptiveGateTrace, adaptiveGateWarmup, adaptiveGateMeasure, adaptiveGateTarget*100)
	run, err := simRunner(adaptiveGateTrace, adaptiveGateWarmup+adaptiveGateMeasure+200_000)
	if err != nil {
		return p, err
	}
	cfg := harness.BaselineCfg()
	cfg.WarmupInsts, cfg.MeasureInsts = adaptiveGateWarmup, adaptiveGateMeasure
	fixedCfg := cfg
	fixedCfg.Sampling = sim.FastSampling()
	adCfg := fixedCfg
	adCfg.Sampling.TargetCI = adaptiveGateTarget
	if p.full, err = run(cfg); err != nil {
		return p, fmt.Errorf("full-detail reference: %v", err)
	}
	if p.fixed, err = run(fixedCfg); err != nil {
		return p, fmt.Errorf("fixed-geometry run: %v", err)
	}
	if p.adaptive, err = run(adCfg); err != nil {
		return p, fmt.Errorf("adaptive run: %v", err)
	}
	if p.again, err = run(adCfg); err != nil {
		return p, fmt.Errorf("adaptive repeat: %v", err)
	}

	grid, baseline, err := autopilotGrid()
	if err != nil {
		return p, err
	}
	fmt.Fprintf(w, "autopilot gate: confidence-pruned search (%s, %d configs, ±%.0f%%→±%.0f%% targets)\n",
		autopilotGateTrace, len(grid), autopilotGateCoarse*100, autopilotGateFinal*100)
	// Each strategy runs on a fresh serial checkpoint pool, so no
	// pass reuses another's memo (spend is read from results, but
	// executed-once semantics keep the determinism comparison honest).
	opts := func() autopilot.Options {
		return autopilotOpts(runq.New(runq.Options{Workers: 1, Checkpoints: true}), grid, baseline)
	}
	if p.search, err = autopilot.Search(opts()); err != nil {
		return p, fmt.Errorf("search: %v", err)
	}
	if p.exhaustive, err = autopilot.Exhaustive(opts()); err != nil {
		return p, fmt.Errorf("exhaustive: %v", err)
	}
	if p.searchAgain, err = autopilot.Search(opts()); err != nil {
		return p, fmt.Errorf("search repeat: %v", err)
	}
	return p, nil
}

func autopilotOpts(exec runq.Runner, grid []runq.Job, baseline *runq.Job) autopilot.Options {
	return autopilot.Options{
		Exec:           exec,
		Grid:           grid,
		Baseline:       baseline,
		CoarseTargetCI: autopilotGateCoarse,
		TargetCI:       autopilotGateFinal,
		MinWindows:     autopilotGateMinWin,
	}
}

// runAutopilotSweep is the -autopilot report mode: one confidence-
// pruned search over the seeded ablation grid, rendered as the Pareto
// table. It honors the harness options the figure sweeps use (-jobs,
// -cache-dir, -server, progress) and lets -adaptive tighten the final
// target.
func runAutopilotSweep(w io.Writer, hopts harness.Options, finalTarget float64) error {
	grid, baseline, err := autopilotGrid()
	if err != nil {
		return fmt.Errorf("autopilot: %v", err)
	}
	exec := hopts.Exec
	if exec == nil {
		pool := runq.New(runq.Options{
			Workers:     hopts.Jobs,
			CacheDir:    hopts.CacheDir,
			Checkpoints: true,
			Clock:       hopts.Clock,
			Progress:    hopts.Progress,
		})
		defer pool.ReportWriteFailures(os.Stderr)
		exec = pool
	}
	opts := autopilotOpts(exec, grid, baseline)
	if finalTarget > 0 {
		opts.TargetCI = finalTarget
		if opts.CoarseTargetCI < finalTarget {
			opts.CoarseTargetCI = finalTarget
		}
	}
	opts.Log = hopts.Progress
	rep, err := autopilot.Search(opts)
	if err != nil {
		return fmt.Errorf("autopilot: %v", err)
	}
	fmt.Fprintf(w, "## Autopilot — confidence-pruned ablation search\n\n")
	fmt.Fprintf(w, "Trace %s, %d configs, %d warmup + %d measured insts per probe; targets ±%.1f%% → ±%.1f%%.\n\n",
		autopilotGateTrace, len(grid), autopilotGateWarmup, autopilotGateMeasure,
		opts.CoarseTargetCI*100, opts.TargetCI*100)
	rep.WriteMarkdown(w)
	return nil
}

// checkAutopilot applies every bound, returning the violations and the record.
func checkAutopilot(p autopilotPasses) ([]string, autopilotBench) {
	var violations []string
	s, fixed := p.adaptive.Sampled, p.fixed.Sampled
	if p.adaptive.DeterminismDigest() != p.again.DeterminismDigest() {
		violations = append(violations, "adaptive: two passes digest differently")
	}
	if !s.TargetMet {
		violations = append(violations, fmt.Sprintf(
			"adaptive: target ±%.1f%% unmet within the %d-window budget", adaptiveGateTarget*100, s.WindowBudget))
	}
	if s.Windows >= fixed.Windows {
		violations = append(violations, fmt.Sprintf(
			"adaptive: %d windows, no fewer than the fixed geometry's %d", s.Windows, fixed.Windows))
	}
	if bias := math.Abs(s.IPCMean - p.full.IPC); bias > s.IPCCI95 {
		violations = append(violations, fmt.Sprintf(
			"adaptive: full-detail IPC %.4f outside the claimed interval %.4f ± %.4f",
			p.full.IPC, s.IPCMean, s.IPCCI95))
	}
	relHalf := 0.0
	if s.IPCMean > 0 {
		relHalf = s.IPCCI95 / s.IPCMean
	}

	search, exhaustive, again := p.search, p.exhaustive, p.searchAgain
	winner := search.Candidates[search.WinnerIndex].Job.Config.Name
	if search.WinnerIndex != exhaustive.WinnerIndex {
		violations = append(violations, fmt.Sprintf("search winner %s differs from exhaustive winner %s",
			winner, exhaustive.Candidates[exhaustive.WinnerIndex].Job.Config.Name))
	}
	spend := 0.0
	if search.TotalSpentInsts > 0 {
		spend = float64(exhaustive.TotalSpentInsts) / float64(search.TotalSpentInsts)
	}
	if spend < autopilotMinSpendRatio {
		violations = append(violations, fmt.Sprintf(
			"spend ratio %.2fx below the %.1fx bound (search %d vs exhaustive %d insts)",
			spend, autopilotMinSpendRatio, search.TotalSpentInsts, exhaustive.TotalSpentInsts))
	}
	switch {
	case again.WinnerIndex != search.WinnerIndex:
		violations = append(violations, "second search names a different winner")
	case again.Rounds != search.Rounds || again.TotalSpentInsts != search.TotalSpentInsts:
		violations = append(violations, fmt.Sprintf(
			"second search spent differently (%d rounds / %d insts vs %d / %d)",
			again.Rounds, again.TotalSpentInsts, search.Rounds, search.TotalSpentInsts))
	case again.Candidates[again.WinnerIndex].Result.DeterminismDigest() !=
		search.Candidates[search.WinnerIndex].Result.DeterminismDigest():
		violations = append(violations, "second search's winning digest diverges")
	}
	pruned := 0
	for _, c := range search.Candidates {
		if c.PrunedRound > 0 {
			pruned++
		}
	}
	return violations, autopilotBench{
		benchEnvelope: newEnvelope(fmt.Sprintf(
			"autopilot gate (adaptive sampling on %s; pruned vs exhaustive %d-config search on %s)",
			adaptiveGateTrace, len(search.Candidates), autopilotGateTrace), p.cores),
		Adaptive: adaptiveRecord{
			Trace:           adaptiveGateTrace,
			TargetCI:        adaptiveGateTarget,
			FullIPC:         roundTo(p.full.IPC, 4),
			AdaptiveIPCMean: roundTo(s.IPCMean, 4),
			AdaptiveIPCCI95: roundTo(s.IPCCI95, 4),
			AchievedRelHalf: roundTo(relHalf, 4),
			FixedWindows:    fixed.Windows,
			AdaptiveWindows: s.Windows,
			WindowBudget:    s.WindowBudget,
			TargetMet:       s.TargetMet,
		},
		Autopilot: searchRecord{
			Trace:                autopilotGateTrace,
			Configs:              len(search.Candidates),
			CoarseTargetCI:       autopilotGateCoarse,
			FinalTargetCI:        autopilotGateFinal,
			Winner:               winner,
			Rounds:               search.Rounds,
			Pruned:               pruned,
			SearchSpentInsts:     search.TotalSpentInsts,
			ExhaustiveSpentInsts: exhaustive.TotalSpentInsts,
			SpendRatio:           roundTo(spend, 2),
			MinSpendRatioBound:   autopilotMinSpendRatio,
		},
	}
}

// reportAutopilot prints the summary and regenerates the Pareto section of
// EXPERIMENTS_RESULTS.md.
func reportAutopilot(w io.Writer, p autopilotPasses, b autopilotBench) error {
	ad, ap := b.Adaptive, b.Autopilot
	fmt.Fprintf(w, "  adaptive: %s full IPC %.4f; fixed %d windows; adaptive %d/%d windows, IPC %.4f ±%.4f (±%.2f%%, target ±%.0f%%, met=%v)\n",
		adaptiveGateTrace, ad.FullIPC, ad.FixedWindows, ad.AdaptiveWindows, ad.WindowBudget,
		ad.AdaptiveIPCMean, ad.AdaptiveIPCCI95, ad.AchievedRelHalf*100, adaptiveGateTarget*100, ad.TargetMet)
	fmt.Fprintf(w, "  search: winner %s after %d rounds, %d/%d pruned, %.1f Minsts spent\n",
		ap.Winner, ap.Rounds, ap.Pruned, ap.Configs, float64(ap.SearchSpentInsts)/1e6)
	fmt.Fprintf(w, "  exhaustive: winner %s, %.1f Minsts spent — search spends %.2fx less (bound: ≥%.1fx)\n",
		p.exhaustive.Candidates[p.exhaustive.WinnerIndex].Job.Config.Name,
		float64(ap.ExhaustiveSpentInsts)/1e6, ap.SpendRatio, autopilotMinSpendRatio)

	var table strings.Builder
	p.search.WriteMarkdown(&table)
	if err := spliceAutopilotResults(autopilotResultsPath, table.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "  Pareto table regenerated in %s\n", autopilotResultsPath)
	return nil
}

// spliceAutopilotResults replaces the generated Pareto section of
// EXPERIMENTS_RESULTS.md in place (appending the section, markers
// included, when the file has none yet).
func spliceAutopilotResults(path, table string) error {
	section := autopilotBeginMarker + "\n\n" +
		fmt.Sprintf("Confidence-pruned ablation on %s (%d warmup + %d measured insts per probe; targets ±%.0f%% → ±%.0f%%).\n\n",
			autopilotGateTrace, autopilotGateWarmup, autopilotGateMeasure,
			autopilotGateCoarse*100, autopilotGateFinal*100) +
		table + "\n" + autopilotEndMarker
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		data = nil
	}
	text := string(data)
	begin := strings.Index(text, autopilotBeginMarker)
	end := strings.Index(text, autopilotEndMarker)
	if begin >= 0 && end > begin {
		text = text[:begin] + section + text[end+len(autopilotEndMarker):]
	} else {
		if text != "" && !strings.HasSuffix(text, "\n") {
			text += "\n"
		}
		text += "\n## Autopilot — confidence-pruned ablation search\n\n" + section + "\n"
	}
	return os.WriteFile(path, []byte(text), 0o644)
}
