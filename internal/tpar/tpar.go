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
//     (sim.SamplingConfig.BoundaryWarm) — window-parallel mode. Its
//     schedule is fixed: an adaptive geometry's stop rule is sequential,
//     so sim.Config.ValidateSegments rejects adaptive sampling here.
//
// Either way every interval is one sim.RunSegment on a fresh machine
// over its own stream from position zero (a generator walk for a
// synthetic profile, an arena cursor for a recorded trace), whose
// boundary state is rebuilt by the warming pyramid or restored from a
// content-addressed internal/ckpt checkpoint captured on an earlier
// run. Workers take intervals in index order and file each outcome
// under its index; the outcomes are then folded in index order.
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
	// instruction count); for a sampled run with a fixed schedule it is
	// only the opt-in switch, the windows coming from the sampling
	// geometry. An adaptive sampled run is rejected
	// (sim.Config.ValidateSegments). <= 1 runs the serial engine.
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
// independent stream at position zero on every call (a fresh generator
// walk or arena cursor: each interval gets its own); it is called from
// multiple goroutines.
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
	n := len(specs)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
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

	// mu guards the state below. Workers take intervals in index order
	// and stop taking them after the first failure, so when a run fails
	// every index below its lowest failing one was already taken and
	// has completed by Wait: the error reported is the one a serial run
	// would hit first, at every worker count. Progress notes are sent
	// under the same lock, keeping the hook single-goroutine.
	var (
		mu     sync.Mutex
		next   int
		failed bool
		noted  int
		cells  = make([]*sim.SegmentResult, n)
		errs   = make([]error, n)
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next == n {
			return 0, false
		}
		next++
		return next - 1, true
	}
	file := func(i int, res sim.SegmentResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs[i], failed = err, true
		} else {
			cells[i] = &res
		}
		noted++
		if opts.Hook != nil {
			opts.Hook(sim.Progress{Stage: sim.StageMeasuring, WindowsDone: noted, WindowsTotal: n})
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				res, err := runOne(specs[i])
				file(i, res, err)
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return sim.Result{}, fmt.Errorf("tpar: %s %d: %w", unitName(cfg), i, err)
		}
	}
	return fold(cfg, traceName, cells)
}

// fold reduces the intervals' results — in index order, never arrival
// order — into one sim.Result. Counter blocks are summed measured-region
// deltas (integer addition, exact in any grouping); histograms merge
// into fresh clones, so the cells themselves are never mutated. The
// rates use the serial engine's formulas over the summed deltas, and a
// TimeParStats block records the interval provenance. A sampled cfg
// additionally gets the serial controller's SampledStats block
// (per-window IPC/MPKI and Student-t 95% intervals). A missing cell is
// an error: a silently short merge would report wrong numbers with a
// valid-looking digest.
func fold(cfg sim.Config, traceName string, cells []*sim.SegmentResult) (sim.Result, error) {
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
	t := &sim.TimeParStats{Segments: len(cells)}
	for i, c := range cells {
		if c == nil {
			return sim.Result{}, fmt.Errorf("tpar: merge is missing %s %d of %d", unitName(cfg), i, len(cells))
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
		UCPStorageKB: cells[0].UCPStorageKB,
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
		r.Sampled.Finish(cfg.Sampling, len(cells), false)
	}
	return r, nil
}
