package sim

import (
	"fmt"

	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/stats"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// This file is the per-interval half of the interval executor
// (internal/tpar): one run is split into spans — contiguous segments of
// a full-detail run's measured region, or the measured windows of a
// sampled run — and each span is simulated independently on a fresh
// machine whose boundary state is rebuilt by the same warming pyramid
// the sampled mode uses (trace skip → BP-train skip → cache-warm skip →
// functional commit → detailed warm). Because every span's outcome is a
// pure function of (config, trace, span, warming geometry), spans can
// run concurrently on any number of workers and merge into one
// byte-identical result.

// BoundaryWarm is the warming geometry applied at each segment
// boundary. All counts are instructions; the pyramid-nesting rules
// match SamplingConfig's horizons (fastForward shares the
// implementation, and the sampled warmup is a boundary warm with a zero
// DetailedInsts).
//
//ucplint:config
type BoundaryWarm struct {
	// DetailedInsts precede every segment in detailed-but-unmeasured
	// mode, refilling pipeline/queue timing state the functional path
	// does not model.
	DetailedInsts uint64

	// FFInsts bounds the functional-warming horizon before the detailed
	// warm; 0 functionally commits the entire gap from position zero
	// (most accurate, but the boundary cost then grows with the
	// boundary's position and caps parallel scaling).
	FFInsts uint64

	// CacheInsts bounds the cache-warming horizon of the skip zone,
	// exactly as SamplingConfig.CacheWarmInsts (0 = unbounded).
	CacheInsts uint64

	// BPInsts bounds the direction-predictor training horizon of the
	// skip zone, exactly as SamplingConfig.BPWarmInsts (0 = unbounded).
	// When both horizons are bounded the cache-warm zone must fit
	// inside the predictor-training zone.
	BPInsts uint64
}

// DefaultBoundaryWarm is the conservative geometry: bounded functional
// warming, unbounded cache warming and predictor training in the skip
// zone — the same safety posture as ConservativeSampling, so no
// long-history state is ever dropped at a boundary.
func DefaultBoundaryWarm() BoundaryWarm {
	return BoundaryWarm{
		DetailedInsts: 5_000,
		FFInsts:       50_000,
	}
}

// Validate bounds the boundary-warming geometry.
func (b BoundaryWarm) Validate() error {
	if b.DetailedInsts < 1000 {
		return fmt.Errorf("sim: BoundaryWarm.DetailedInsts must be at least 1000 (segment boundaries are commit-based; a shorter detailed warm hands transient pipeline state to the measured span), got %d", b.DetailedInsts)
	}
	if b.DetailedInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.DetailedInsts %d is implausibly large", b.DetailedInsts)
	}
	if b.FFInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.FFInsts %d is implausibly large", b.FFInsts)
	}
	if b.CacheInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.CacheInsts %d is implausibly large", b.CacheInsts)
	}
	if b.BPInsts > 1<<40 {
		return fmt.Errorf("sim: BoundaryWarm.BPInsts %d is implausibly large", b.BPInsts)
	}
	if b.BPInsts > 0 && (b.CacheInsts == 0 || b.CacheInsts > b.BPInsts) {
		return fmt.Errorf("sim: BoundaryWarm.CacheInsts (%d) must be bounded within BPInsts (%d): an unwarmed cache zone inside the predictor-training zone inverts the warming pyramid",
			b.CacheInsts, b.BPInsts)
	}
	return nil
}

// SegmentSpec is one contiguous span [Start, End) of absolute stream
// positions (instruction counts from position zero), measured in
// detailed mode by one worker. Index orders segments within the run.
type SegmentSpec struct {
	Index      int
	Start, End uint64
}

// SegmentResult carries one segment's measured-region deltas. Unlike
// the serial Result, whose counter blocks are cumulative end-of-run
// state, every block here covers exactly [Start, End) — the merge sums
// them, so the combined blocks describe the measured region alone.
type SegmentResult struct {
	Index      int
	Start, End uint64

	// Insts/Cycles are the measured span's commit count and detailed
	// cycle count (the span may overshoot End by at most one commit
	// window — deterministically, like the serial engine's stop).
	Insts  uint64
	Cycles uint64

	FE  frontend.Stats
	Uop uopcache.Stats
	UCP core.Stats
	L1I cache.Stats

	StreamLens *stats.Histogram
	RefillLat  *stats.Histogram

	// SkippedInsts/FFInsts report how the boundary was warmed (restored
	// checkpoints return the captured values, so a restored segment is
	// indistinguishable from a cold one here too); DetailedInsts counts
	// everything cycle-accurately committed (boundary warm + measured
	// span) — the interval executor's sampled merge sums it into
	// SampledStats.DetailedInsts.
	SkippedInsts  uint64
	FFInsts       uint64
	DetailedInsts uint64

	UCPStorageKB float64
}

// RunSegment simulates one segment of a full-detail run: rebuild the
// boundary state at spec.Start (restoring a cached checkpoint when the
// store has one, capturing one for the next run otherwise), then
// measure [Start, End) in detailed mode. src must be a fresh stream at
// position zero, not shared with any other segment (its own generator
// walk, or its own cursor over a recorded trace's arena). The result is deterministic for a given
// (cfg, trace, spec, warm) regardless of worker placement, and a
// checkpoint-restored boundary is byte-identical to a cold one.
func RunSegment(cfg Config, src trace.Source, code core.CodeInfo, spec SegmentSpec, warm BoundaryWarm, wc *WarmCheckpoints) (SegmentResult, error) {
	if err := cfg.Validate(); err != nil {
		return SegmentResult{}, err
	}
	if cfg.Sampling.Enabled {
		return SegmentResult{}, fmt.Errorf("sim: RunSegment is the full-detail span runner; a sampled window runs here with Sampling stripped and the boundary warm derived from the sampling geometry (internal/tpar)")
	}
	if err := warm.Validate(); err != nil {
		return SegmentResult{}, err
	}
	if spec.End <= spec.Start {
		return SegmentResult{}, fmt.Errorf("sim: segment %d has empty span [%d, %d)", spec.Index, spec.Start, spec.End)
	}

	// The detailed engine reads src only after the fast-forward is
	// done, so the frontend's batched read-ahead cannot outrun a stream
	// position nobody advances anymore — no scalar wrapper needed
	// (unlike the sampled mode, which alternates back into functional
	// phases after detailed windows).
	m := NewMachine(cfg, src, code)
	defer m.release()

	warmStart := uint64(0)
	if spec.Start > warm.DetailedInsts {
		warmStart = spec.Start - warm.DetailedInsts
	}
	if err := m.warmTo(warmStart, warm, wc); err != nil {
		return SegmentResult{}, err
	}
	a, b, err := m.measureSpan(spec.Start, spec.End)
	if err != nil {
		return SegmentResult{}, err
	}

	r := SegmentResult{
		Index:         spec.Index,
		Start:         spec.Start,
		End:           spec.End,
		Insts:         b.insts - a.insts,
		Cycles:        b.cycles - a.cycles,
		FE:            SubCounters(a.fe, b.fe),
		Uop:           SubCounters(a.uop, b.uop),
		UCP:           SubCounters(a.ucp, b.ucp),
		L1I:           SubCounters(a.l1i, b.l1i),
		StreamLens:    m.fe.StreamLens,
		RefillLat:     m.fe.RefillLat,
		SkippedInsts:  m.skipped,
		FFInsts:       m.ffInsts,
		DetailedInsts: b.insts - m.ffInsts,
	}
	if m.ucp != nil {
		r.UCPStorageKB = m.ucp.StorageKB()
	}
	return r, nil
}
