// Package frontend models the decoupled frontend of Fig. 1: a branch
// prediction unit generating up to 16 addresses (2 fetch windows) per
// cycle into a fetch target queue, and a fetch engine that serves FTQ
// windows either from the µ-op cache (stream mode, 8 µ-ops/cycle, short
// pipe) or from the L1I + decoders (build mode, 6 µ-ops/cycle, long
// pipe), switching modes with a 1-cycle penalty (§II, §V).
//
// The simulator is trace-driven and does not fetch wrong-path
// instructions: when the BPU's prediction disagrees with the trace, the
// BPU stalls at the offending branch until the backend resolves it
// (execute-time for direction/target mispredictions) or until decode
// discovers the target (BTB-miss resteers). The refill that follows —
// FTQ regeneration plus µ-op-cache-vs-decoder delivery — is exactly the
// window UCP accelerates.
package frontend

import (
	"ucp/internal/bpred"
	"ucp/internal/btb"
	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/ittage"
	"ucp/internal/ras"
	"ucp/internal/recycle"
	"ucp/internal/stats"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// Config sizes the frontend.
type Config struct {
	// FTQWindows is the FTQ capacity in fetch windows (24 windows × 8
	// addresses ≈ the 192-entry FTQ of Table II).
	FTQWindows int
	// WindowsPerCycle bounds BPU window generation (2 → 16 addresses).
	WindowsPerCycle int
	// WindowInsts is the fetch window size (8).
	WindowInsts int
	// UopQueue is the µ-op queue capacity between fetch and dispatch.
	// It covers the 32-entry decode buffer plus the pipeline-stage
	// registers of the in-flight fetch/decode stages (µ-ops occupy a
	// slot from fetch-issue to dispatch in this model).
	UopQueue int
	// DecodeWidth is the decoder throughput per cycle (6).
	DecodeWidth int
	// StreamLat is the µ-op-cache path delivery latency (short pipe).
	StreamLat uint64
	// DecodePipeLat is the additional decode-pipe latency after the L1I
	// line is available (long pipe).
	DecodePipeLat uint64
	// StreamSwitchHits is the number of consecutive µ-op-cache window
	// hits in build mode before switching back to stream mode.
	StreamSwitchHits int
	// ModeSwitchPenalty is the bubble paid on each mode switch.
	ModeSwitchPenalty uint64
	// ResteerPenalty is the extra bubble after a decode-time resteer.
	ResteerPenalty uint64
}

// DefaultConfig mirrors Table II and §V.
func DefaultConfig() Config {
	return Config{
		FTQWindows:        24,
		WindowsPerCycle:   2,
		WindowInsts:       8,
		UopQueue:          128,
		DecodeWidth:       6,
		StreamLat:         2,
		DecodePipeLat:     4,
		StreamSwitchHits:  3,
		ModeSwitchPenalty: 1,
		ResteerPenalty:    1,
	}
}

// Ideal selects the paper's idealized study configurations (§III).
type Ideal struct {
	// UopAlwaysHit models the ideal µ-op cache (Fig. 4's blue line).
	UopAlwaysHit bool
	// L1IHits treats every window whose lines are L1I-resident as µ-op
	// cache hits (Fig. 5's L1I-Hits configuration).
	L1IHits bool
	// BRCondN > 0 marks all windows as µ-op hits after a conditional
	// misprediction until N conditional branches have been fetched
	// (Fig. 5's IdealBRCond-8/16).
	BRCondN int
	// NoUopCache removes the µ-op cache entirely: every window takes
	// the L1I + decoder path and there is no mode switching (the Fig. 2
	// baseline).
	NoUopCache bool
}

// L1IPrefetcher observes demand instruction fetches; implementations
// issue prefetches through the hierarchy's PrefetchInst.
type L1IPrefetcher interface {
	// OnFetch fires once per demand-fetched line with its residency.
	OnFetch(lineAddr uint64, hit bool, now uint64)
}

// UCPHook lets the UCP engine observe prediction-time events. A nil
// hook disables UCP.
type UCPHook interface {
	// OnCond fires for every conditional branch at prediction time,
	// after the predictor was updated. takenTarget is the BTB's target
	// (valid when btbHit), used to start a not-taken→taken alternate
	// path.
	OnCond(pc uint64, p *bpred.Prediction, actualTaken bool, takenTarget uint64, btbHit bool, now uint64)
	// OnUncond fires for unconditional control flow (Alt-Ind/Alt-RAS
	// shadow training).
	OnUncond(pc uint64, class isa.Class, target uint64, now uint64)
	// OnMispredictResolved fires when the backend redirects the
	// frontend.
	OnMispredictResolved(now uint64)
}

type windowInst struct {
	inst       isa.Inst
	predTaken  bool
	mispredict bool
}

type window struct {
	insts      [16]windowInst
	n          int
	mispredict bool // BPU stalled behind this window until execute
	resteer    bool // BPU stalled until this window's delivery (decode)
	forceHit   bool // ideal-mode override
	// lineReady is the cycle the window's L1I lines are available,
	// initiated at FTQ-insertion time (fetch-directed prefetching); 0
	// when no L1I access was started.
	lineReady uint64
	// l1iResident records whether all of the window's lines were L1I-
	// resident when the address was generated (the L1I-Hits ideal).
	l1iResident bool
}

// DeliveredUop is one µ-op handed to dispatch.
type DeliveredUop struct {
	Inst         isa.Inst
	Mispredict   bool
	ReadyAt      uint64
	FromUopCache bool
}

// Stats aggregates frontend counters.
type Stats struct {
	Windows          uint64
	FetchedInsts     uint64
	UopsFromUopCache uint64
	UopsFromDecode   uint64
	EntryLookups     uint64
	EntryHits        uint64
	ModeSwitches     uint64
	CondBranches     uint64
	CondMispredicts  uint64
	Mispredicts      uint64 // all execute-resolved redirects
	Resteers         uint64 // decode-resolved redirects
	BPUStallCycles   uint64
	WrongPathInsts   uint64 // always 0 (no wrong-path fetch); kept: the golden digests print Stats
	H2PTage          bpred.H2PStats
	H2PUCP           bpred.H2PStats
}

// Frontend is the decoupled fetch engine.
type Frontend struct {
	cfg   Config
	ideal Ideal

	src     trace.Source
	srcDone bool

	// Batched trace delivery (trace.BatchSource fast path): when the
	// source supports it, instructions are pulled many-at-a-time into
	// batch, amortizing the per-Next interface dispatch. batchSrc is nil
	// for scalar-only sources and the consumption order is identical
	// either way.
	batchSrc trace.BatchSource
	batch    []isa.Inst
	batchPos int
	batchLen int

	Pred *bpred.TageSCL
	BTB  *btb.BTB
	RAS  *ras.Stack
	Ind  *ittage.Predictor
	Uop  *uopcache.UopCache
	Mem  *cache.Hierarchy

	builder *uopcache.Builder
	hook    UCPHook

	// L1IPrefetcher observes demand instruction fetches (standalone
	// prefetcher baselines attach here).
	L1IPrefetcher L1IPrefetcher

	ftq     []window
	ftqHead int
	ftqUsed int

	uopq     []DeliveredUop
	uopqHead int
	uopqUsed int

	mode        int // 0 = stream, 1 = build
	consecHits  int
	fetchStall  uint64
	lastDeliver uint64

	// Entry-run carry across windows (see fetchWindow).
	carryValid bool
	carryPC    uint64
	carryNext  uint64
	carryHit   bool

	// BPU stall state.
	bpuStallUntil  uint64 // resume at this cycle (resteer/flush)
	waitingFlush   bool
	waitingDeliver bool

	// Sampled-mode state (functional.go): window generation gate and the
	// last L1I line touched by the functional-commit path.
	paused      bool
	ffLastLine  uint64
	ffLineValid bool

	brCondCredit int // remaining forced-hit conditional branches
	fastCredit   int // µ-ops streamed by the MRC (bypass fetch latency)

	// Distribution instrumentation (§III-A: stream lengths decide
	// whether the µ-op cache pays; refill latency is what UCP attacks).
	StreamLens   *stats.Histogram
	RefillLat    *stats.Histogram
	curStreamLen uint64
	resumedAt    uint64 // pending refill-latency measurement, 0 = none

	// Per-cycle bank usage (for UCP conflict modeling).
	bankCycle    uint64
	btbBanksUsed uint64
	uopBanksUsed uint64
	stolenCycles uint64 // demand cycles lost to alternate-path BTB wins

	// Hot-path scratch, reused so steady-state fetch allocates nothing:
	// the BPU's Prediction (which would otherwise escape through the
	// UCPHook interface at every conditional branch), the entry specs
	// windowHit derives, and the µ-op cache geometry.
	predScratch bpred.Prediction
	specScratch []uopcache.EntrySpec
	uopCfg      uopcache.Config

	stats Stats
}

// New wires a frontend. All structures are owned by the caller so UCP
// and the harness can share them.
func New(cfg Config, src trace.Source, pred *bpred.TageSCL, b *btb.BTB,
	r *ras.Stack, ind *ittage.Predictor, u *uopcache.UopCache,
	mem *cache.Hierarchy, ideal Ideal) *Frontend {
	f := &Frontend{
		cfg:         cfg,
		ideal:       ideal,
		src:         src,
		Pred:        pred,
		BTB:         b,
		RAS:         r,
		Ind:         ind,
		Uop:         u,
		Mem:         mem,
		builder:     uopcache.NewBuilder(u, false),
		ftq:         recycle.Make[window](cfg.FTQWindows),
		uopq:        make([]DeliveredUop, cfg.UopQueue),
		mode:        1, // cold caches start on the build path
		StreamLens:  newStreamLens(),
		RefillLat:   newRefillLat(),
		specScratch: make([]uopcache.EntrySpec, 0, cfg.WindowInsts),
		uopCfg:      u.Config(),
	}
	// One-time type assertion: sources with a batch fast path are drained
	// through a read-ahead buffer instead of per-instruction dispatch.
	if bs, ok := src.(trace.BatchSource); ok {
		f.batchSrc = bs
		f.batch = make([]isa.Inst, 128)
	}
	return f
}

// Release hands the FTQ back to package recycle; the frontend must not
// be used afterwards. The structures passed to New belong to the
// caller, which releases them itself.
func (f *Frontend) Release() {
	recycle.Free(f.ftq)
	f.ftq = nil
}

// nextInst pulls the next trace instruction, refilling the read-ahead
// buffer through the batch fast path when the source has one.
func (f *Frontend) nextInst() (isa.Inst, bool) {
	if f.batchPos < f.batchLen {
		in := f.batch[f.batchPos]
		f.batchPos++
		return in, true
	}
	if f.batchSrc != nil {
		n := f.batchSrc.NextBatch(f.batch)
		if n > 0 {
			f.batchPos, f.batchLen = 1, n
			return f.batch[0], true
		}
		return isa.Inst{}, false
	}
	return f.src.Next()
}

// Histogram constructors are shared between New and ResetHistograms so
// each stat name has exactly one registration site (ucplint statname).
func newStreamLens() *stats.Histogram {
	return stats.NewHistogram("µ-op cache stream length (µ-ops)")
}

func newRefillLat() *stats.Histogram {
	return stats.NewHistogram("mispredict-to-first-µ-op refill latency (cycles)")
}

// SetHook attaches the UCP engine.
func (f *Frontend) SetHook(h UCPHook) { f.hook = h }

// Stats returns a copy of the counters.
func (f *Frontend) Stats() Stats { return f.stats }

// Done reports whether the trace is exhausted and all buffered work
// drained.
func (f *Frontend) Done() bool {
	return f.srcDone && f.ftqUsed == 0 && f.uopqUsed == 0
}

// Mode returns 0 for stream mode, 1 for build mode.
func (f *Frontend) Mode() int { return f.mode }

// InStreamMode reports whether the decoders are idle this cycle
// (UCP-SharedDecoders gate).
func (f *Frontend) InStreamMode() bool { return f.mode == 0 }

// BTBBankBusy reports whether the demand path used the given BTB bank
// during the current cycle.
func (f *Frontend) BTBBankBusy(now uint64, bank int) bool {
	return f.bankCycle == now && f.btbBanksUsed&(1<<uint(bank)) != 0
}

// UopBankBusy reports whether the demand path tag-checked the given
// µ-op cache bank during the current cycle.
func (f *Frontend) UopBankBusy(now uint64, bank int) bool {
	return f.bankCycle == now && f.uopBanksUsed&(1<<uint(bank)) != 0
}

// StealBTBCycle models the alternate path winning a conflicted BTB bank:
// the demand path retries next cycle (§IV-C).
func (f *Frontend) StealBTBCycle(now uint64) {
	f.stolenCycles++
	if f.bpuStallUntil < now+2 && !f.waitingFlush && !f.waitingDeliver {
		f.bpuStallUntil = now + 2
	}
}

func (f *Frontend) markBanks(now uint64, pc uint64) {
	if f.bankCycle != now {
		f.bankCycle = now
		f.btbBanksUsed, f.uopBanksUsed = 0, 0
	}
	f.btbBanksUsed |= 1 << uint(f.BTB.BankOf(pc))
}

func (f *Frontend) markUopBank(now uint64, pc uint64) {
	if f.bankCycle != now {
		f.bankCycle = now
		f.btbBanksUsed, f.uopBanksUsed = 0, 0
	}
	f.uopBanksUsed |= 1 << uint(f.Uop.BankOf(pc))
}

// GrantFastDeliver lets the next n µ-ops bypass fetch/decode latency
// (MRC streaming on a misprediction-recovery hit, §VI-F).
func (f *Frontend) GrantFastDeliver(n int) { f.fastCredit = n }

// ResumeAt redirects the frontend after the backend resolved the stalled
// misprediction.
func (f *Frontend) ResumeAt(cycle uint64) {
	if f.waitingFlush {
		f.waitingFlush = false
		f.bpuStallUntil = cycle
		f.resumedAt = cycle
		if f.hook != nil {
			f.hook.OnMispredictResolved(cycle)
		}
	}
}

// ResetHistograms clears the distribution instrumentation (called at
// the warmup boundary so distributions cover the measured window only).
func (f *Frontend) ResetHistograms() {
	f.StreamLens = newStreamLens()
	f.RefillLat = newRefillLat()
}

// PopUop hands the next ready µ-op to dispatch, if any.
func (f *Frontend) PopUop(now uint64) (DeliveredUop, bool) {
	if f.uopqUsed == 0 {
		return DeliveredUop{}, false
	}
	u := f.uopq[f.uopqHead]
	if u.ReadyAt > now {
		return DeliveredUop{}, false
	}
	f.uopqHead = (f.uopqHead + 1) % len(f.uopq)
	f.uopqUsed--
	return u, true
}

// Cycle advances the frontend: fetch first (consuming last cycle's FTQ),
// then BPU window generation.
func (f *Frontend) Cycle(now uint64) {
	f.fetch(now)
	f.generate(now)
}
