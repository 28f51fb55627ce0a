package sim

import (
	"fmt"
	"math"

	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/stats"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// This file is the sampled simulation mode (SMARTS-style): instead of
// cycle-simulating the whole warmup + measurement region, the
// controller alternates
//
//	warming skip → functional-warm → detailed-warm → measured window
//
// once per PeriodInsts. The warming skip (trace.SkipWarmN) covers the
// bulk of each gap: the trace generator advances its own state machine
// without materializing instructions, reporting only fetch-line
// crossings and load/store addresses so cache and TLB residency stays
// current — the large, slow-to-warm state that dominates sampling bias.
// The functional path (FunctionalCommit on frontend/backend,
// FunctionalObserve on the UCP engine) then commits the last
// FFWarmInsts instructions before each window in program order,
// retraining the small fast-warming structures — branch predictors with
// architectural outcomes, BTB, RAS, ITTAGE, the µ-op cache build path —
// at a fraction of detailed cost. IPC/MPKI are estimated from the
// measured windows with Student-t 95% confidence intervals.

// SamplingConfig configures the sampled simulation mode. All counts are
// instructions. Each period of PeriodInsts ends with WarmInsts of
// detailed (unmeasured) pipeline warming followed by DetailedInsts of
// measured detailed execution; the rest of the period is fast-forwarded.
//
//ucplint:config
type SamplingConfig struct {
	// Enabled turns sampling on. Off by default: full-detail runs are
	// byte-identical to a build without this mode.
	Enabled bool

	// PeriodInsts is the sampling period: one measured window per
	// period, so MeasureInsts/PeriodInsts windows per run.
	PeriodInsts uint64

	// DetailedInsts is the measured window length.
	DetailedInsts uint64

	// WarmInsts precede every measured window in detailed-but-unmeasured
	// mode, refilling pipeline/queue timing state that the functional
	// path does not model.
	WarmInsts uint64

	// FFWarmInsts bounds the functional-warming horizon: only the last
	// FFWarmInsts instructions before each detailed segment run through
	// the functional path, and everything earlier in the gap goes
	// through the warming skip (trace.SkipWarmN, batched per chunk in
	// warmskip.go) — the direction predictor trains on every
	// conditional outcome, cache/TLB demand state advances inside the
	// CacheWarmInsts horizon, and the BTB, RAS and ITTAGE do not
	// advance at all, nor does the µ-op cache, which is not inclusive of
	// the L1I. 0 means no skipping: the entire gap is functionally
	// warmed (most accurate, but bounded to ~2× over full detail since
	// the functional path still materializes and trains on every
	// instruction).
	FFWarmInsts uint64

	// CacheWarmInsts bounds the cache-warming horizon of the skip: only
	// the last CacheWarmInsts skipped instructions before the
	// functional-warm horizon report their memory footprint (fetch
	// lines, load/store addresses) into the cache/TLB hierarchy.
	// 0 means the entire skipped span is cache-warmed — required when
	// the trace's working set turns over structures with long rebuild
	// times (the LLC in particular: its residency reflects roughly a
	// million instructions of history). Ignored when FFWarmInsts is 0
	// (nothing is skipped).
	CacheWarmInsts uint64

	// BPWarmInsts bounds the direction-predictor training horizon of
	// the skip: only the last BPWarmInsts skipped instructions before
	// the functional-warm horizon train the direction predictor(s);
	// anything earlier is skipped outright with no model updates at
	// all, at trace-generator speed. 0 means the whole skipped span
	// trains the predictor — required when predictor accuracy is still
	// converging at the measured scale (large-footprint server traces);
	// small-footprint traces whose tables converge early can bound this
	// and gain another several× of speedup, since per-branch training
	// dominates the skip cost. When both horizons are bounded the
	// cache-warm zone must fit inside the predictor-training zone.
	BPWarmInsts uint64

	// TargetCI, when positive, switches the controller to adaptive
	// window counts: instead of always measuring every window of the
	// fixed MeasureInsts/PeriodInsts schedule, the run stops as soon as
	// the relative 95% half-width of the window-IPC mean (Student-t,
	// half/mean) drops to TargetCI or below. The fixed schedule is the
	// budget — adaptive runs never measure more windows than fixed
	// geometry would, only fewer — so MeasureInsts should over-provision
	// the region when a tight target matters. The stop decision is
	// evaluated on a pinned geometric schedule (first at MinWindows,
	// then every ~25% more windows, adaptiveSchedule below) and is a
	// pure function of the window-IPC sequence, so digests stay
	// deterministic at every worker count.
	TargetCI float64

	// MinWindows is the first stop-evaluation point (adaptive only):
	// no run terminates with fewer measured windows. 0 means the
	// DefaultMinWindows floor; 1 is rejected by Validate — a single
	// window has an infinite half-width and can never satisfy a target,
	// so terminating there would always be a bug.
	MinWindows int

	// MaxWindows, when positive, caps the adaptive window count below
	// the fixed schedule's budget (adaptive only). 0 means the full
	// MeasureInsts/PeriodInsts budget.
	MaxWindows int
}

// DefaultMinWindows is the adaptive controller's floor on measured
// windows when MinWindows is 0: early stop evaluations on a handful of
// windows see an unstable variance estimate, and the pinned schedule's
// sequential-look correction argument (DESIGN.md) assumes the first
// look already has a few degrees of freedom behind it.
const DefaultMinWindows = 8

// ConservativeSampling returns a sampling geometry that is safe on
// every workload: the whole gap outside the functional-warm horizon
// goes through the warming skip with unbounded cache warming and
// predictor training (CacheWarmInsts = BPWarmInsts = 0), so no
// long-history state is ever dropped. Measured ~3-6× over full detail
// at under 2% IPC error on the large-footprint server traces.
func ConservativeSampling() SamplingConfig {
	return SamplingConfig{
		Enabled:       true,
		PeriodInsts:   500_000,
		DetailedInsts: 5_000,
		WarmInsts:     5_000,
		FFWarmInsts:   50_000,
	}
}

// FastSampling returns the bounded-horizon geometry for small-footprint
// traces whose working set fits well inside the LLC and whose predictor
// tables converge early (the crypto profiles): beyond the warming
// horizons the skip runs at trace-generator speed. Measured ≥10× over
// full detail at well under 1% IPC error on crypto01 — the check.sh
// sampling gate pins exactly this geometry — but biased by up to tens
// of percent on traces with LLC-scale data reuse; prefer
// ConservativeSampling when unsure.
func FastSampling() SamplingConfig {
	return SamplingConfig{
		Enabled:        true,
		PeriodInsts:    833_000,
		DetailedInsts:  5_000,
		WarmInsts:      5_000,
		FFWarmInsts:    25_000,
		CacheWarmInsts: 50_000,
		BPWarmInsts:    100_000,
	}
}

// Validate bounds the sampling geometry. The cross-field constraint
// against MeasureInsts (at least one full period) lives in
// Config.Validate.
func (s SamplingConfig) Validate() error {
	if !s.Enabled {
		return nil
	}
	if s.PeriodInsts == 0 {
		return fmt.Errorf("sim: Sampling.PeriodInsts must be positive")
	}
	if s.PeriodInsts > 1<<40 {
		return fmt.Errorf("sim: Sampling.PeriodInsts %d is implausibly large", s.PeriodInsts)
	}
	if s.DetailedInsts < 1000 {
		return fmt.Errorf("sim: Sampling.DetailedInsts must be at least 1000 (window boundaries are commit-based; shorter windows are dominated by in-flight transients), got %d", s.DetailedInsts)
	}
	if s.WarmInsts+s.DetailedInsts > s.PeriodInsts {
		return fmt.Errorf("sim: Sampling.WarmInsts+DetailedInsts (%d+%d) exceed PeriodInsts %d",
			s.WarmInsts, s.DetailedInsts, s.PeriodInsts)
	}
	if s.FFWarmInsts > 1<<40 {
		return fmt.Errorf("sim: Sampling.FFWarmInsts %d is implausibly large", s.FFWarmInsts)
	}
	if s.CacheWarmInsts > 1<<40 {
		return fmt.Errorf("sim: Sampling.CacheWarmInsts %d is implausibly large", s.CacheWarmInsts)
	}
	if s.BPWarmInsts > 1<<40 {
		return fmt.Errorf("sim: Sampling.BPWarmInsts %d is implausibly large", s.BPWarmInsts)
	}
	if s.BPWarmInsts > 0 && (s.CacheWarmInsts == 0 || s.CacheWarmInsts > s.BPWarmInsts) {
		return fmt.Errorf("sim: Sampling.CacheWarmInsts (%d) must be bounded within BPWarmInsts (%d): an unwarmed cache zone inside the predictor-training zone inverts the warming pyramid",
			s.CacheWarmInsts, s.BPWarmInsts)
	}
	if s.TargetCI < 0 {
		return fmt.Errorf("sim: Sampling.TargetCI must be non-negative, got %g", s.TargetCI)
	}
	if s.TargetCI > 0.5 {
		return fmt.Errorf("sim: Sampling.TargetCI %g is implausibly loose (a ±50%% interval bounds nothing useful)", s.TargetCI)
	}
	if s.TargetCI == 0 && (s.MinWindows != 0 || s.MaxWindows != 0) {
		return fmt.Errorf("sim: Sampling.MinWindows/MaxWindows require TargetCI (adaptive mode); fixed geometry derives its window count from MeasureInsts")
	}
	if s.MinWindows < 0 || s.MaxWindows < 0 {
		return fmt.Errorf("sim: Sampling.MinWindows/MaxWindows must be non-negative, got %d/%d", s.MinWindows, s.MaxWindows)
	}
	if s.TargetCI > 0 && s.MinWindows == 1 {
		return fmt.Errorf("sim: Sampling.MinWindows must be at least 2 (a single window has an infinite half-width and can never meet a target), got 1")
	}
	if s.MaxWindows > 0 && s.MinWindows > s.MaxWindows {
		return fmt.Errorf("sim: Sampling.MinWindows %d exceeds MaxWindows %d", s.MinWindows, s.MaxWindows)
	}
	return nil
}

// Adaptive reports whether the confidence-targeted controller is on.
func (s SamplingConfig) Adaptive() bool { return s.Enabled && s.TargetCI > 0 }

// adaptiveSchedule returns the next pinned stop-evaluation point after
// a look at n windows: roughly 25% more windows, at least one. Pinning
// the evaluation points (a group-sequential design, DESIGN.md) bounds
// the number of sequential looks to O(log n) so the optional-stopping
// inflation of the claimed CI stays small; evaluating after every
// window would inflate it far more.
func adaptiveSchedule(n int) int { return n + max(1, n/4) }

// SampleWindows returns the measured-window schedule of the sampling
// geometry over [WarmupInsts, WarmupInsts+MeasureInsts): one spec per
// full period whose [Start, End) is the measured span (the WarmInsts of
// detailed warming precede Start and are not part of the span), plus a
// trailing window over the remainder when MeasureInsts is not
// period-aligned (Config.Validate rejects remainders too short to hold
// the warm+measure tail). The serial sampled controller and the
// interval executor (internal/tpar) both derive their window positions
// from this one function, so the schedule cannot drift between them.
func (c Config) SampleWindows() []SegmentSpec {
	s := c.Sampling
	budget := int(c.MeasureInsts / s.PeriodInsts)
	rem := c.MeasureInsts % s.PeriodInsts
	if rem > 0 {
		budget++
	}
	specs := make([]SegmentSpec, budget)
	for k := range specs {
		end := c.WarmupInsts + uint64(k+1)*s.PeriodInsts
		if rem > 0 && k == budget-1 {
			end = c.WarmupInsts + c.MeasureInsts
		}
		specs[k] = SegmentSpec{Index: k, Start: end - s.DetailedInsts, End: end}
	}
	return specs
}

// BoundaryWarm maps the sampling geometry's warming horizons onto the
// per-boundary warming geometry RunSegment applies: the per-window
// detailed warm becomes the boundary's detailed warm and the
// functional/cache/predictor horizons carry over unchanged. This is the
// bridge the interval executor (internal/tpar) crosses — a sampled
// window is exactly a RunSegment over the measured span with this
// warm — and it also makes window boundaries share checkpoint content
// addresses (sim.BoundaryKey) with full-detail segment boundaries
// placed at the same position under the same horizons.
func (s SamplingConfig) BoundaryWarm() BoundaryWarm {
	return BoundaryWarm{
		DetailedInsts: s.WarmInsts,
		FFInsts:       s.FFWarmInsts,
		CacheInsts:    s.CacheWarmInsts,
		BPInsts:       s.BPWarmInsts,
	}
}

// adaptiveStop is the confidence-targeted controller's stop rule: a
// one-pass Welford accumulator over the window IPCs, evaluated only at
// the pinned group-sequential schedule points. It is a pure function of
// the window-(insts, cycles) sequence observed in window-index order —
// no machine state, no wall clock — so two passes over the same trace
// stop at exactly the same window.
type adaptiveStop struct {
	s        SamplingConfig
	minW     int
	run      stats.Running
	nextEval int
	seen     int
}

// newAdaptiveStop builds the stop rule for a run capped at maxW
// windows. For non-adaptive geometries Observe never stops.
func newAdaptiveStop(s SamplingConfig, maxW int) *adaptiveStop {
	minW := s.MinWindows
	if minW == 0 {
		minW = DefaultMinWindows
	}
	if minW > maxW {
		minW = maxW
	}
	return &adaptiveStop{s: s, minW: minW, nextEval: minW}
}

// Observe folds one measured window — strictly the next one in window
// order — and returns the current relative 95% half-width of the
// window-IPC mean (+Inf while undefined) plus whether the pinned
// schedule says to stop after this window. Zero-cycle windows
// contribute no IPC observation, matching the serial controller.
func (a *adaptiveStop) Observe(insts, cycles uint64) (rel float64, stop bool) {
	a.seen++
	if cycles > 0 {
		a.run.Add(float64(insts) / float64(cycles))
	}
	rel = math.Inf(1)
	if !a.s.Adaptive() || a.seen < a.minW {
		return rel, false
	}
	mean, half := a.run.CI95()
	if mean > 0 && !math.IsInf(half, 1) {
		rel = half / mean
	}
	if a.run.N() >= a.nextEval {
		if rel <= a.s.TargetCI {
			return rel, true
		}
		for a.nextEval <= a.run.N() {
			a.nextEval = adaptiveSchedule(a.nextEval)
		}
	}
	return rel, false
}

// SampledStats reports what the sampling controller did and what it
// estimated. It is folded into the determinism digest, so every field
// must be deterministic for a given (seed, config).
type SampledStats struct {
	// Windows is the number of measured windows.
	Windows int
	// SkippedInsts went through the warming skip (cache/TLB residency
	// and predictor training advance per the CacheWarmInsts/BPWarmInsts
	// horizons; no BTB updates and no µ-op cache fills); FFInsts were
	// functionally committed; DetailedInsts were cycle-accurately
	// committed (warm + measured + inter-window drain); MeasuredInsts is
	// the measured subset of DetailedInsts.
	SkippedInsts  uint64
	FFInsts       uint64
	DetailedInsts uint64
	MeasuredInsts uint64

	// WindowIPC / WindowMPKI are the per-window observations behind the
	// interval estimates.
	WindowIPC  []float64
	WindowMPKI []float64

	// IPCMean ± IPCCI95 and MPKIMean ± MPKICI95 are Student-t 95%
	// interval estimates over the windows. The half-widths are 0 when
	// fewer than two windows exist (a single observation bounds
	// nothing, and Result must stay JSON-serializable for the runq
	// cache, which rules out storing +Inf).
	IPCMean  float64
	IPCCI95  float64
	MPKIMean float64
	MPKICI95 float64

	// Adaptive-mode provenance, zero for fixed-geometry runs (their
	// digests are unchanged): TargetCI echoes the configured relative
	// half-width target, WindowBudget is the fixed schedule's window
	// count the run could have used, and TargetMet reports whether the
	// run stopped because the target was reached (false: it exhausted
	// the budget or the MaxWindows cap first — the claimed interval is
	// still honest, just wider than asked).
	TargetCI     float64
	WindowBudget int
	TargetMet    bool
}

// Finish fills the Student-t 95% interval estimates from the window
// observations — a half-width that is undefined (fewer than two
// windows) is stored as 0, keeping Result JSON-serializable — and, for
// adaptive geometries, the stop provenance: budget is the fixed
// schedule's window count and targetMet reports an adaptive stop. The
// serial sampled controller finishes through here, and so does the
// interval executor's fold (internal/tpar), whose schedule is fixed.
func (s *SampledStats) Finish(sc SamplingConfig, budget int, targetMet bool) {
	if sc.Adaptive() {
		s.TargetCI = sc.TargetCI
		s.WindowBudget = budget
		s.TargetMet = targetMet
	}
	s.IPCMean, s.IPCCI95 = stats.CI95(s.WindowIPC)
	s.MPKIMean, s.MPKICI95 = stats.CI95(s.WindowMPKI)
	if math.IsInf(s.IPCCI95, 1) {
		s.IPCCI95 = 0
	}
	if math.IsInf(s.MPKICI95, 1) {
		s.MPKICI95 = 0
	}
}

// runSampled is the sampling controller. Position accounting lives on
// the machine (Machine.skipped); drain overshoot past a window boundary
// simply shortens the next period's fast-forward gap.
func runSampled(cfg Config, src trace.Source, code core.CodeInfo, traceName string, wc *WarmCheckpoints, hook ProgressFunc) (Result, error) {
	m := NewMachine(cfg, src, code)
	defer m.release()
	s := cfg.Sampling
	// Window schedule: one window per full period, plus a trailing
	// window over the remainder when MeasureInsts is not period-aligned
	// (Config.Validate rejects remainders too short to hold the
	// warm+measure tail, so no measured instructions are ever silently
	// dropped). SampleWindows is shared with the interval
	// executor, so serial and parallel runs place identical windows.
	specs := cfg.SampleWindows()
	budget := len(specs)
	// Adaptive mode stops early once the pinned evaluation schedule
	// sees the window-IPC half-width at or below target; the fixed
	// schedule is the budget either way.
	adaptive := s.Adaptive()
	maxW := budget
	if adaptive && s.MaxWindows > 0 && s.MaxWindows < maxW {
		maxW = s.MaxWindows
	}
	hook.note(StageWarming, 0, maxW)

	var (
		streamAcc, refillAcc *stats.Histogram
		ipcs, mpkis          []float64
		sumInsts, sumCycles  uint64
		dFE                  frontend.Stats
		dUop                 uopcache.Stats
	)

	// Warmup region: fast-forwarded entirely (bounded functional
	// warming), as a boundary warm with no detailed warm of its own —
	// the per-window WarmInsts restore timing state. With a checkpoint
	// store attached it is captured once per boundary key (ckpt.go).
	h := s.BoundaryWarm()
	h.DetailedInsts = 0
	if err := m.warmTo(cfg.WarmupInsts, h, wc); err != nil {
		return Result{}, err
	}
	hook.note(StageMeasuring, 0, maxW)

	// The adaptive stop rule: a one-pass Welford accumulator over the
	// window IPCs, evaluated only at the pinned schedule points — a
	// pure function of the window-mean sequence, so two passes
	// terminate identically.
	as := newAdaptiveStop(s, maxW)
	minW := as.minW
	targetMet := false

	for k := 0; k < maxW; k++ {
		if err := m.fastForward(specs[k].Start-s.WarmInsts, h); err != nil {
			return Result{}, err
		}
		a, b, err := m.measureSpan(specs[k].Start, specs[k].End)
		if err != nil {
			return Result{}, err
		}

		wInsts := b.insts - a.insts
		wCycles := b.cycles - a.cycles
		sumInsts += wInsts
		sumCycles += wCycles
		AddCounters(&dFE, SubCounters(a.fe, b.fe))
		AddCounters(&dUop, SubCounters(a.uop, b.uop))
		if wCycles > 0 {
			ipcs = append(ipcs, float64(wInsts)/float64(wCycles))
		}
		if wInsts > 0 {
			mpkis = append(mpkis, float64(b.fe.CondMispredicts-a.fe.CondMispredicts)/float64(wInsts)*1000)
		}
		// Detach the window's histograms into the accumulators before
		// the drain can pollute them with out-of-window samples.
		if streamAcc == nil {
			streamAcc, refillAcc = m.fe.StreamLens, m.fe.RefillLat
		} else {
			streamAcc.Merge(m.fe.StreamLens)
			refillAcc.Merge(m.fe.RefillLat)
		}
		m.fe.ResetHistograms()

		// Quiesce: stop window generation and let in-flight work retire,
		// handing a clean stream position to the next fast-forward.
		m.fe.Pause()
		if err := m.drainQuiet(); err != nil {
			return Result{}, err
		}
		rel, stop := as.Observe(wInsts, wCycles)
		if !adaptive || k+1 < minW {
			hook.note(StageMeasuring, k+1, maxW)
			continue
		}
		hook.noteHalf(StageRefining, k+1, maxW, rel)
		if stop {
			targetMet = true
			break
		}
	}

	end := m.snap()
	sampled := &SampledStats{
		Windows:       len(ipcs),
		SkippedInsts:  m.skipped,
		FFInsts:       m.ffInsts,
		DetailedInsts: m.be.Committed - m.ffInsts,
		MeasuredInsts: sumInsts,
		WindowIPC:     ipcs,
		WindowMPKI:    mpkis,
	}
	sampled.Finish(s, budget, targetMet)

	r := Result{
		Name:    cfg.Name,
		Trace:   traceName,
		Insts:   sumInsts,
		Cycles:  sumCycles,
		Sampled: sampled,
	}
	r.SetRates(dFE, dUop)
	r.FE = end.fe
	r.Uop = end.uop
	r.UCP = end.ucp
	r.L1I = end.l1i
	r.StreamLens = streamAcc
	r.RefillLat = refillAcc
	if m.ucp != nil {
		r.UCPStorageKB = m.ucp.StorageKB()
	}
	return r, nil
}

// fastForward advances the stream position to `to` through the warming
// pyramid under h's horizons (h.DetailedInsts is the caller's business):
// the last h.FFInsts instructions run the functional path, the
// h.CacheInsts before that warm caches and train the predictor, the
// h.BPInsts before that train the predictor only, and anything earlier
// skips at trace-generator speed (a zero horizon extends the
// corresponding tier over the whole remainder). Skipped instructions
// never reach the backend, so the absolute stream position is
// m.skipped + be.Committed.
func (m *Machine) fastForward(to uint64, h BoundaryWarm) error {
	cur := m.skipped + m.be.Committed
	if to <= cur {
		return nil
	}
	warm := to - cur
	if h.FFInsts > 0 && warm > h.FFInsts {
		skip := warm - h.FFInsts
		warm = h.FFInsts
		cacheZ := skip
		if h.CacheInsts > 0 && cacheZ > h.CacheInsts {
			cacheZ = h.CacheInsts
		}
		bpZ := skip - cacheZ
		if h.BPInsts > 0 && bpZ > h.BPInsts-cacheZ {
			bpZ = h.BPInsts - cacheZ
		}
		pure := skip - cacheZ - bpZ
		zones := [3]struct {
			n    uint64
			kind zoneKind
		}{{pure, zonePure}, {bpZ, zoneBP}, {cacheZ, zoneCache}}
		for _, z := range zones {
			if z.n == 0 {
				continue
			}
			n := m.skipZone(z.n, z.kind, warmChunk)
			m.skipped += n
			m.cycle += n
			if n != z.n {
				return fmt.Errorf("sim: trace ended during fast-forward at instruction %d", m.skipped+m.be.Committed)
			}
		}
	}
	done, err := m.ffRun(warm)
	m.ffInsts += done
	return err
}

// ffRun functionally commits up to n instructions, returning how many it
// managed (short only at end of trace, which is an error for the
// sampled controller's budgets).
func (m *Machine) ffRun(n uint64) (uint64, error) {
	for i := uint64(0); i < n; i++ {
		in, ok := m.src.Next()
		if !ok {
			return i, fmt.Errorf("sim: trace ended during functional warming (%d committed)", m.be.Committed)
		}
		predTaken := m.fe.FunctionalCommit(&in, m.cycle)
		if m.ucp != nil {
			m.ucp.FunctionalObserve(&in, predTaken)
		}
		m.be.FunctionalCommit(&in, m.cycle)
		m.cycle++
	}
	return n, nil
}

// measureSpan runs the detailed engine from the current position
// through the detailed warm up to start, then over the measured span
// [start, end), and returns the snapshots at both ends. The frontend
// histograms are reset at start, so they cover the span alone. Targets
// are commit counts: absolute position minus what was skipped.
func (m *Machine) measureSpan(start, end uint64) (a, b snapshot, err error) {
	m.fe.Unpause()
	if err := m.runUntil(start - m.skipped); err != nil {
		return a, b, err
	}
	a = m.snap()
	m.fe.ResetHistograms()
	if err := m.runUntil(end - m.skipped); err != nil {
		return a, b, err
	}
	return a, m.snap(), nil
}

// runUntil steps the detailed engine until the commit counter reaches
// target, with the same stuck-guard as the full-detail loop.
func (m *Machine) runUntil(target uint64) error {
	lastCommit := m.be.Committed
	stuck := uint64(0)
	for m.be.Committed < target {
		m.Step()
		if m.be.Committed == lastCommit {
			stuck++
			if stuck > 200_000 {
				return fmt.Errorf("sim: no commit for %d cycles at cycle %d (%d committed, target %d)", stuck, m.cycle, m.be.Committed, target)
			}
		} else {
			stuck = 0
			lastCommit = m.be.Committed
		}
		if m.fe.Done() && m.be.Drained() {
			return fmt.Errorf("sim: trace ended during sampled run (%d committed, target %d)", m.be.Committed, target)
		}
	}
	return nil
}

// drainQuiet steps with window generation paused until the FTQ, µ-op
// queue, and ROB are all empty.
func (m *Machine) drainQuiet() error {
	for cycles := 0; !(m.fe.Empty() && m.be.Drained()); cycles++ {
		if cycles > 200_000 {
			return fmt.Errorf("sim: pipeline failed to drain within %d cycles at cycle %d", cycles, m.cycle)
		}
		m.Step()
	}
	return nil
}
