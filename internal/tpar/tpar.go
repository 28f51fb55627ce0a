// Package tpar is the interval executor: it runs one simulation as a
// set of independent measured intervals simulated concurrently and
// merged in interval order, so the combined sim.Result is
// byte-identical at any worker count — the same bar internal/runq's
// job-level parallelism already clears.
//
// The intervals come from the config:
//   - a full-detail run is split into N contiguous segments of its
//     measured region (Plan), each boundary-warmed with
//     sim.DefaultBoundaryWarm (time-parallel mode);
//   - a sampled run measures exactly the windows of its sampling
//     schedule (sim.Config.SampleWindows), each boundary-warmed with the
//     horizons the sampling geometry already specifies
//     (sim.SamplingConfig.BoundaryWarm) — window-parallel mode.
//
// Either way every interval is one sim.RunSegment on a fresh machine
// over its own arena cursor, whose boundary state is rebuilt by the
// warming pyramid or restored from a content-addressed internal/ckpt
// checkpoint captured on an earlier run. Completed intervals feed one
// in-order consumer running the shared stop rule (sim.AdaptiveStop),
// which never stops for non-adaptive configs. An adaptive sampled run
// therefore speculates: workers run ahead of the pinned stop schedule
// and every window past the stop point is discarded, so a parallel
// adaptive run stops at exactly the window a serial one does.
//
// The price is a bounded warming error: each interval's start state
// comes from the warming pyramid rather than from cycle-accurate
// history (EXPERIMENTS.md quantifies both modes' IPC delta).
// Segments <= 1 runs the serial engine, byte-identical to sim.Run.
package tpar

import (
	"fmt"
	"runtime"
	"sync"

	"ucp/internal/cache"
	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/sim"
	"ucp/internal/stats"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// Options configures one interval-parallel run.
type Options struct {
	// Segments > 1 selects the interval executor: a full-detail run is
	// split into this many segments (clamped to the measured
	// instruction count); for a sampled run it is only the opt-in
	// switch, the window schedule coming from the sampling geometry.
	// <= 1 runs the serial engine.
	Segments int
	// Workers bounds concurrent interval simulations (GOMAXPROCS when
	// <= 0). Results are byte-identical at any value.
	Workers int
	// Checkpoints, when non-nil, caches each boundary's functional-warm
	// state under a content-addressed key (sim.BoundaryKey, with
	// single-flight capture): the first run captures, later runs — or
	// concurrent runs sharing a boundary — restore, with byte-identical
	// results either way. TraceID must then identify the instruction
	// stream exactly (sim.WarmCheckpoints).
	Checkpoints *ckpt.Store
	TraceID     string
	// Gate, when non-nil, bounds interval concurrency across *multiple*
	// concurrent runs sharing it (internal/runq sizes one gate at its
	// worker count so a parallel job cooperates with the pool instead of
	// oversubscribing the host). Each in-flight interval holds one slot.
	Gate chan struct{}
	// Hook receives progress notifications (observability only; runs
	// are byte-identical with and without one). Unlike sim's hooks it
	// may be invoked from multiple goroutines; calls are serialized.
	Hook sim.ProgressFunc
}

// Plan splits the measured region [warmup, warmup+measure) into
// contiguous segments: segments of base length measure/n with the
// remainder spread one instruction each over the leading segments, so
// lengths differ by at most one. n is clamped to [1, measure] — more
// segments than instructions would create empty spans.
func Plan(warmup, measure uint64, n int) []sim.SegmentSpec {
	if n < 1 {
		n = 1
	}
	if uint64(n) > measure {
		n = int(measure)
		if n < 1 {
			n = 1
		}
	}
	base := measure / uint64(n)
	rem := measure % uint64(n)
	specs := make([]sim.SegmentSpec, n)
	start := warmup
	for i := range specs {
		length := base
		if uint64(i) < rem {
			length++
		}
		specs[i] = sim.SegmentSpec{Index: i, Start: start, End: start + length}
		start += length
	}
	return specs
}

// unitName names one interval of cfg's run in errors: a window of a
// sampled run, a segment of a full-detail one.
func unitName(cfg sim.Config) string {
	if cfg.Sampling.Enabled {
		return "window"
	}
	return "segment"
}

// Run executes cfg over the trace. newSource must return a fresh,
// independent stream at position zero on every call (arena cursors:
// each interval gets its own); it is called from multiple goroutines.
// With Segments <= 1 (or a full-detail measured region too short to
// split) the run goes through the serial engine and is byte-identical
// to sim.Run.
func Run(cfg sim.Config, newSource func() trace.Source, code core.CodeInfo, traceName string, opts Options) (sim.Result, error) {
	if err := cfg.Validate(); err != nil {
		return sim.Result{}, err
	}
	if err := cfg.ValidateSegments(opts.Segments); err != nil {
		return sim.Result{}, err
	}
	var wc *sim.WarmCheckpoints
	if opts.Checkpoints != nil {
		wc = &sim.WarmCheckpoints{Store: opts.Checkpoints, TraceID: opts.TraceID}
	}

	// One ordered interval list and one boundary warm per run. A sampled
	// window runs as a full-detail segment: Sampling is stripped so the
	// per-window machine is the plain detailed engine (RunSegment's
	// contract) and the warm carries the sampling horizons — which also
	// makes window boundaries share sim.BoundaryKey checkpoint
	// addresses with any segment boundary at the same position and
	// horizons.
	s := cfg.Sampling
	segCfg := cfg
	var (
		specs []sim.SegmentSpec
		warm  sim.BoundaryWarm
	)
	if s.Enabled {
		specs = cfg.SampleWindows()
		warm = s.BoundaryWarm()
		segCfg.Sampling = sim.SamplingConfig{}
	} else {
		specs = Plan(cfg.WarmupInsts, cfg.MeasureInsts, opts.Segments)
		warm = sim.DefaultBoundaryWarm()
	}
	if opts.Segments <= 1 || (!s.Enabled && len(specs) <= 1) {
		return sim.RunHooked(cfg, newSource(), code, traceName, wc, opts.Hook)
	}
	budget := len(specs)
	if s.Adaptive() && s.MaxWindows > 0 && s.MaxWindows < budget {
		specs = specs[:s.MaxWindows]
	}
	n := len(specs)
	unit := unitName(cfg)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Serialized progress: completions arrive from any worker, but the
	// hook contract is single-goroutine.
	var noteMu sync.Mutex
	noted := 0
	note := func(rel float64, refining bool) {
		if opts.Hook == nil {
			return
		}
		noteMu.Lock()
		defer noteMu.Unlock()
		noted++
		if refining {
			opts.Hook(sim.Progress{Stage: sim.StageRefining, WindowsDone: noted, WindowsTotal: n, HalfWidth: rel})
		} else {
			opts.Hook(sim.Progress{Stage: sim.StageMeasuring, WindowsDone: noted, WindowsTotal: n})
		}
	}
	if opts.Hook != nil {
		opts.Hook(sim.Progress{Stage: sim.StageWarming, WindowsDone: 0, WindowsTotal: n})
	}

	// runOne simulates one interval with its own recover: a panicking
	// interval fails this run, not the process (and not its siblings'
	// worker goroutines). Each in-flight interval holds one Gate slot,
	// so total detailed-simulation concurrency across every parallel run
	// sharing the gate stays bounded.
	runOne := func(spec sim.SegmentSpec) (res sim.SegmentResult, err error) {
		if opts.Gate != nil {
			opts.Gate <- struct{}{}
			defer func() { <-opts.Gate }()
		}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return sim.RunSegment(segCfg, newSource(), code, spec, warm, wc)
	}

	// Coordination state, all under mu. The feeder below hands out
	// interval indices in order — for an adaptive run, issuance running
	// ahead of the stop rule is the speculation — and completions feed
	// the reorder buffer. advance consumes completed intervals strictly
	// in index order through the stop rule; once it stops (or trips over
	// an in-order error) issuance ceases and everything past that point
	// is discarded. Both decisions are pure functions of the in-order
	// interval sequence, so the result — and which failure is reported —
	// is identical at every worker count and schedule.
	type obs struct{ insts, cycles uint64 }
	var (
		mu       sync.Mutex
		seen     = make([]obs, n)
		errs     = make([]error, n)
		done     = make([]bool, n)
		consumed int
		stopAt   = -1 // inclusive index of the stop window; -1: none
		hardErr  error
		as       = sim.NewAdaptiveStop(s, n)
	)
	advance := func() {
		for stopAt < 0 && hardErr == nil && consumed < n && done[consumed] {
			k := consumed
			if errs[k] != nil {
				// The lowest-indexed failure: a serial run would have failed
				// here. Later intervals' outcomes are irrelevant.
				hardErr = fmt.Errorf("tpar: %s %d: %w", unit, k, errs[k])
				return
			}
			consumed++
			if _, stop := as.Observe(seen[k].insts, seen[k].cycles); stop {
				stopAt = k
			}
		}
	}

	// Fan out over the workers. Each worker folds its intervals into its
	// own Accum (cells are disjoint by construction: an index is
	// dispatched exactly once); the per-worker accums merge afterwards
	// in any order, and Accum.Result reduces in interval order — which
	// is why the digest is byte-identical at any worker count.
	accs := make([]*Accum, workers)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := NewAccum(n)
			accs[w] = acc
			for i := range idxCh {
				res, err := runOne(specs[i])

				mu.Lock()
				done[i] = true
				if err != nil {
					errs[i] = err
				} else {
					seen[i] = obs{insts: res.Insts, cycles: res.Cycles}
				}
				advance()
				var rel float64
				refining := s.Adaptive() && consumed >= as.Min()
				if refining {
					rel = as.Rel()
				}
				mu.Unlock()
				if err == nil {
					acc.Add(res)
				}
				note(rel, refining)
			}
		}(w)
	}
	// Feed indices in issue order. A send already blocked when the
	// consumer stops still hands one more speculative interval to a
	// worker; it is discarded at reduction like every other interval
	// past the stop point, so the result stays schedule-independent.
	for i := 0; i < n; i++ {
		mu.Lock()
		stopped := stopAt >= 0 || hardErr != nil
		mu.Unlock()
		if stopped {
			break
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	if hardErr != nil {
		return sim.Result{}, hardErr
	}
	include, targetMet := n, false
	if stopAt >= 0 {
		include, targetMet = stopAt+1, true
	}
	merged := accs[0]
	for _, acc := range accs[1:] {
		merged.Merge(acc)
	}
	return merged.Result(cfg, traceName, include, budget, targetMet)
}

// Accum accumulates per-interval results, keyed by interval index.
// Cells from different Accums are disjoint (each interval is simulated
// exactly once), which is what makes Merge commutative; every
// order-sensitive reduction is deferred to Result's index-ordered walk.
type Accum struct {
	cells []*sim.SegmentResult
}

// NewAccum returns an accumulator for a run of up to n intervals.
func NewAccum(n int) *Accum {
	return &Accum{cells: make([]*sim.SegmentResult, n)}
}

// Add files one interval's result under its index. Filing two results
// under one index is a scheduling bug and panics.
func (a *Accum) Add(r sim.SegmentResult) {
	if r.Index < 0 || r.Index >= len(a.cells) {
		panic(fmt.Sprintf("tpar: interval index %d out of range [0, %d)", r.Index, len(a.cells)))
	}
	if a.cells[r.Index] != nil {
		panic(fmt.Sprintf("tpar: interval %d accumulated twice", r.Index))
	}
	c := r
	a.cells[r.Index] = &c
}

// Merge folds b's cells into a. Cell sets are disjoint by construction,
// so the merge is a union: no arithmetic happens here at all — every
// order-sensitive reduction is deferred to Result's index-ordered walk,
// which is what keeps digests byte-identical at any worker count.
// Verified dynamically by TestAccumMergeCommutes (shuffle-merge under
// seeded random orderings, via stats.CheckCommutative).
//
//ucplint:commutative
func (a *Accum) Merge(b *Accum) {
	if len(b.cells) > len(a.cells) {
		grown := make([]*sim.SegmentResult, len(b.cells))
		copy(grown, a.cells)
		a.cells = grown
	}
	for i, c := range b.cells {
		if c == nil {
			continue
		}
		if a.cells[i] != nil {
			panic(fmt.Sprintf("tpar: interval %d accumulated twice across merge", i))
		}
		a.cells[i] = c
	}
}

// Result reduces the first `include` accumulated intervals — in index
// order, never arrival order — into one sim.Result. Intervals past
// `include` (speculation beyond an adaptive stop) are ignored. Counter
// blocks are summed measured-region deltas (integer addition, exact in
// any grouping); histograms merge into fresh clones, so the cells
// themselves are never mutated and Result can be re-derived from the
// same Accum. The rates use the serial engine's formulas over the
// summed deltas, and a TimeParStats block records the interval
// provenance. A sampled cfg additionally gets the serial controller's
// SampledStats block (per-window IPC/MPKI and Student-t 95% intervals);
// budget is the fixed schedule's window count and targetMet reports an
// adaptive stop.
func (a *Accum) Result(cfg sim.Config, traceName string, include, budget int, targetMet bool) (sim.Result, error) {
	if include < 1 || include > len(a.cells) {
		return sim.Result{}, fmt.Errorf("tpar: include %d out of range [1, %d]", include, len(a.cells))
	}
	var (
		insts, cycles  uint64
		skipped, ff    uint64
		detailed       uint64
		fe             frontend.Stats
		uop            uopcache.Stats
		ucp            core.Stats
		l1i            cache.Stats
		stream, refill *stats.Histogram
		ipcs, mpkis    []float64
	)
	t := &sim.TimeParStats{Segments: include}
	for i, c := range a.cells[:include] {
		if c == nil {
			return sim.Result{}, fmt.Errorf("tpar: merge is missing %s %d of %d", unitName(cfg), i, include)
		}
		insts += c.Insts
		cycles += c.Cycles
		skipped += c.SkippedInsts
		ff += c.FFInsts
		detailed += c.DetailedInsts
		sim.AddCounters(&fe, c.FE)
		sim.AddCounters(&uop, c.Uop)
		sim.AddCounters(&ucp, c.UCP)
		sim.AddCounters(&l1i, c.L1I)
		if stream == nil {
			stream, refill = c.StreamLens.Clone(), c.RefillLat.Clone()
		} else {
			stream.Merge(c.StreamLens)
			refill.Merge(c.RefillLat)
		}
		segIPC := 0.0
		if c.Cycles > 0 {
			segIPC = float64(c.Insts) / float64(c.Cycles)
			ipcs = append(ipcs, segIPC)
		}
		if c.Insts > 0 {
			mpkis = append(mpkis, float64(c.FE.CondMispredicts)/float64(c.Insts)*1000)
		}
		t.Boundaries = append(t.Boundaries, c.Start)
		t.SegInsts = append(t.SegInsts, c.Insts)
		t.SegCycles = append(t.SegCycles, c.Cycles)
		t.SegIPC = append(t.SegIPC, segIPC)
	}
	t.SkippedInsts, t.FFInsts = skipped, ff

	r := sim.Result{
		Name:         cfg.Name,
		Trace:        traceName,
		Insts:        insts,
		Cycles:       cycles,
		FE:           fe,
		Uop:          uop,
		UCP:          ucp,
		L1I:          l1i,
		StreamLens:   stream,
		RefillLat:    refill,
		TimePar:      t,
		UCPStorageKB: a.cells[0].UCPStorageKB,
	}
	r.SetRates(fe, uop)
	if cfg.Sampling.Enabled {
		r.Sampled = &sim.SampledStats{
			Windows:       len(ipcs),
			SkippedInsts:  skipped,
			FFInsts:       ff,
			DetailedInsts: detailed,
			MeasuredInsts: insts,
			WindowIPC:     ipcs,
			WindowMPKI:    mpkis,
		}
		r.Sampled.Finish(cfg.Sampling, budget, targetMet)
	}
	return r, nil
}
