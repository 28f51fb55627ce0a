// Package sim assembles the full core model — decoupled frontend,
// out-of-order backend, memory hierarchy, µ-op cache, and optionally the
// UCP engine and standalone L1I prefetcher baselines — and runs it over
// a trace, producing the metrics the paper's figures report.
package sim

import (
	"fmt"
	"strings"

	"ucp/internal/backend"
	"ucp/internal/bpred"
	"ucp/internal/btb"
	"ucp/internal/cache"
	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/ittage"
	"ucp/internal/prefetch"
	"ucp/internal/ras"
	"ucp/internal/stats"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// ModelVersion stamps the simulator's behavior revision. internal/runq
// folds it into every result-cache key, so cached results from an older
// model revision are never replayed as current ones. Bump it whenever a
// change anywhere in the model alters any measured number.
const ModelVersion = "ucp-sim-3"

// Config describes one simulated machine configuration. Run validates
// it (and, transitively, every sub-structure's geometry) before
// assembling a machine.
//
//ucplint:config
type Config struct {
	// Name labels the variant in experiment output.
	Name string

	Frontend   frontend.Config
	Backend    backend.Config
	Memory     cache.HierarchyConfig
	Pred       bpred.Config
	BTB        btb.Config
	Ind        ittage.Config
	Uop        uopcache.Config
	RASEntries int

	Ideal frontend.Ideal

	// UCP enables the alternate-path prefetcher when non-nil.
	UCP *core.Config

	// L1IPrefetcher selects a standalone instruction prefetcher
	// baseline ("", "fnlmma", "fnlmma++", "djolt", "ep", "ep++").
	L1IPrefetcher string

	// MRC enables the misprediction recovery cache baseline (§VI-F).
	MRC *prefetch.MRCConfig

	// WarmupInsts are committed before statistics start; MeasureInsts
	// are then measured (§V: 50M + 50M at full scale).
	WarmupInsts  uint64
	MeasureInsts uint64

	// Sampling selects the sampled simulation mode (sampling.go): the
	// MeasureInsts region is covered by periodic detailed windows
	// separated by functional fast-forward instead of being
	// cycle-simulated end to end. Default off; full-detail behavior is
	// untouched when disabled.
	Sampling SamplingConfig
}

// Baseline is the Table II configuration: 4Kops µ-op cache, 64KB
// TAGE-SC-L, 64KB ITTAGE, 64K-entry BTB, no UCP, no L1I prefetcher.
func Baseline() Config {
	return Config{
		Name:         "baseline",
		Frontend:     frontend.DefaultConfig(),
		Backend:      backend.DefaultConfig(),
		Memory:       cache.DefaultHierarchyConfig(),
		Pred:         bpred.Config64KB(),
		BTB:          btb.DefaultConfig(),
		Ind:          ittage.Config64KB(),
		Uop:          uopcache.DefaultConfig(),
		RASEntries:   64,
		WarmupInsts:  400_000,
		MeasureInsts: 600_000,
	}
}

// WithUCP returns the baseline plus a UCP engine (which also doubles the
// BTB banks, §IV-C).
func WithUCP(ucp core.Config) Config {
	c := Baseline()
	c.Name = "UCP"
	c.UCP = &ucp
	c.BTB = btb.UCPConfig()
	return c
}

// validL1IPrefetchers are the standalone prefetcher baseline names.
var validL1IPrefetchers = map[string]bool{
	"": true, "fnlmma": true, "fnlmma++": true, "djolt": true, "ep": true, "ep++": true,
}

// Validate rejects machine configurations whose structures could not be
// built in hardware, delegating to each sub-config's own Validate.
func (c Config) Validate() error {
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if err := c.Pred.Validate(); err != nil {
		return err
	}
	if err := c.BTB.Validate(); err != nil {
		return err
	}
	if err := c.Ind.Validate(); err != nil {
		return err
	}
	if err := c.Uop.Validate(); err != nil {
		return err
	}
	if c.RASEntries <= 0 {
		return fmt.Errorf("sim: RASEntries must be positive, got %d", c.RASEntries)
	}
	if c.UCP != nil {
		if err := c.UCP.Validate(); err != nil {
			return err
		}
	}
	if c.MRC != nil {
		if err := c.MRC.Validate(); err != nil {
			return err
		}
	}
	if !validL1IPrefetchers[c.L1IPrefetcher] {
		return fmt.Errorf("sim: unknown L1I prefetcher %q", c.L1IPrefetcher)
	}
	if c.MeasureInsts == 0 {
		return fmt.Errorf("sim: MeasureInsts must be positive")
	}
	if c.WarmupInsts > 1<<40 {
		return fmt.Errorf("sim: WarmupInsts %d is implausibly large", c.WarmupInsts)
	}
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	if c.Sampling.Enabled && c.Sampling.PeriodInsts > c.MeasureInsts {
		return fmt.Errorf("sim: Sampling.PeriodInsts %d exceeds MeasureInsts %d (need at least one full period)",
			c.Sampling.PeriodInsts, c.MeasureInsts)
	}
	if c.Sampling.Enabled {
		// A period-unaligned MeasureInsts gets a trailing measurement
		// window over the remainder (SampleWindows) — but only
		// when the remainder can hold the warm+measure tail. Anything
		// shorter would either be silently dropped (the pre-fix
		// behavior) or measure a window shorter than the geometry
		// promises; reject it instead.
		if rem := c.MeasureInsts % c.Sampling.PeriodInsts; rem > 0 && rem < c.Sampling.WarmInsts+c.Sampling.DetailedInsts {
			return fmt.Errorf("sim: MeasureInsts %% Sampling.PeriodInsts leaves a %d-instruction remainder, too short for a trailing window (WarmInsts+DetailedInsts = %d); align MeasureInsts to the period or extend it",
				rem, c.Sampling.WarmInsts+c.Sampling.DetailedInsts)
		}
	}
	return nil
}

// ValidateSegments is the one compatibility matrix for composing a
// parallel segment request with this config — ucpsim, experiments,
// sweepd's submit and the interval executor (internal/tpar) all consult
// it instead of hand-rolling (and drifting) their own rejection
// messages. segments <= 1 is always the serial engine. segments > 1
// splits a full-detail config into segments and runs a fixed-schedule
// sampled config's windows in parallel, each window's boundary warm
// derived from the sampling geometry (SamplingConfig's BoundaryWarm
// method). Two sampled compositions are rejected with the remediation
// spelled out: an adaptive geometry, whose stop rule is sequential (a
// window's inclusion depends on every window before it), and a
// geometry whose WarmInsts cannot satisfy the boundary warm's floor.
func (c Config) ValidateSegments(segments int) error {
	if segments <= 1 || !c.Sampling.Enabled {
		return nil
	}
	if c.Sampling.TargetCI > 0 {
		return fmt.Errorf("sim: adaptive sampling cannot run window-parallel (its stop rule consumes windows in order; drop -segments or -adaptive), got %d segments", segments)
	}
	if c.Sampling.WarmInsts < 1000 {
		return fmt.Errorf("sim: sampled+time-parallel composition requires Sampling.WarmInsts >= 1000 (each window's detailed warm becomes a segment boundary warm, whose floor is 1000; raise WarmInsts or drop -segments), got %d", c.Sampling.WarmInsts)
	}
	return nil
}

// Result carries the measured metrics of one run.
type Result struct {
	Name  string
	Trace string

	Insts  uint64
	Cycles uint64
	IPC    float64

	// UopHitRate is the per-instruction µ-op cache hit rate (Fig. 3).
	UopHitRate float64
	// SwitchPKI is stream/build mode switches per kilo-instruction.
	SwitchPKI float64
	// CondMPKI is conditional branch mispredictions per kilo-instruction.
	CondMPKI float64
	// PrefetchAccuracy is used prefetched entries over prefetched
	// entries (Fig. 14); zero when UCP is off.
	PrefetchAccuracy float64

	// StreamLens is the distribution of consecutive µ-op cache hit
	// stream lengths; RefillLat the mispredict-resolve to first-µ-op
	// latency distribution (measured window only).
	StreamLens *stats.Histogram
	RefillLat  *stats.Histogram

	FE           frontend.Stats
	Uop          uopcache.Stats
	UCP          core.Stats
	UCPStorageKB float64
	L1I          cache.Stats

	// Sampled carries the sampling estimator's window statistics; nil
	// for full-detail runs, so their digests are unchanged.
	Sampled *SampledStats

	// TimePar carries the interval executor's merge provenance
	// (internal/tpar) for segmented and window-parallel runs; nil for
	// serial runs, so their digests are unchanged.
	TimePar *TimeParStats
}

// TimeParStats reports how a parallel run was split into intervals
// (segments or sampled windows) and what each one measured. It is folded into the determinism digest, so
// every field must be independent of worker count and scheduling —
// checkpoint provenance (captured vs restored boundaries) deliberately
// lives in the pool's CheckpointStats instead.
type TimeParStats struct {
	// Segments is the number of concurrently simulated trace segments.
	Segments int
	// Boundaries are the segment start positions (absolute instruction
	// counts), in segment order.
	Boundaries []uint64
	// SegInsts/SegCycles/SegIPC are the per-segment measured spans, in
	// segment order.
	SegInsts  []uint64
	SegCycles []uint64
	SegIPC    []float64
	// SkippedInsts/FFInsts total the boundary-warming work across all
	// segments (warming-skip vs functionally committed instructions).
	SkippedInsts uint64
	FFInsts      uint64
}

// Machine is one assembled core, stepped cycle by cycle.
type Machine struct {
	cfg   Config
	fe    *frontend.Frontend
	be    *backend.Backend
	mem   *cache.Hierarchy
	ucp   *core.Engine
	mrc   *prefetch.MRC
	uop   *uopcache.UopCache
	src   trace.Source // post-wrapping stream, shared with the frontend
	cycle uint64
	warm  *warmBuf // warming-skip chunk buffer, allocated on first skip

	// Position accounting of the fast-forward: skipped instructions
	// never reached the backend (the absolute stream position is
	// skipped + be.Committed); ffInsts were functionally committed.
	skipped, ffInsts uint64

	mrcPending uint64 // corrected target of the stalled misprediction
}

// NewMachine assembles a machine over src. When code is nil and UCP is
// enabled, instruction classes are learned from the dynamic stream (the
// recorded-trace case) instead of read from a generated Program.
func NewMachine(cfg Config, src trace.Source, code core.CodeInfo) *Machine {
	if cfg.Sampling.Enabled {
		// The fast-forward controller and the frontend must observe one
		// shared stream position, so the frontend's batched read-ahead
		// (which buffers up to 128 instructions past the commit point)
		// is hidden behind a scalar wrapper in sampled mode.
		src = trace.NewScalar(src)
	}
	if code == nil && cfg.UCP != nil {
		lc := NewLearnedCode()
		src = &observingSource{src: src, code: lc}
		code = lc
	}
	mem := cache.NewHierarchy(cfg.Memory)
	pred := bpred.NewTageSCL(cfg.Pred)
	b := btb.New(cfg.BTB)
	r := ras.New(cfg.RASEntries)
	ind := ittage.New(cfg.Ind)
	uop := uopcache.New(cfg.Uop)
	fe := frontend.New(cfg.Frontend, src, pred, b, r, ind, uop, mem, cfg.Ideal)
	be := backend.New(cfg.Backend, mem)
	m := &Machine{cfg: cfg, fe: fe, be: be, mem: mem, uop: uop, src: src}
	if cfg.UCP != nil {
		m.ucp = core.New(*cfg.UCP, fe, code)
		fe.SetHook(m.ucp)
	}
	if pf := prefetch.NewL1I(cfg.L1IPrefetcher, mem); pf != nil {
		fe.L1IPrefetcher = pf
	}
	if cfg.MRC != nil {
		m.mrc = prefetch.NewMRC(*cfg.MRC)
	}
	be.DataPrefetcher = prefetch.NewIPStride(mem)
	return m
}

// release hands the machine's large arrays (cache and TLB tags, BTB,
// µ-op cache, predictor tables, the FTQ and the ROB) back to package recycle, for the next
// machine to reuse, and nils them, so a use after release panics
// instead of reading another machine's state. The functions that build
// a machine release it when they return; no Result or SegmentResult
// refers to a released array.
func (m *Machine) release() {
	m.fe.Release()
	m.be.Release()
	m.mem.Release()
	m.fe.BTB.Release()
	m.uop.Release()
	m.fe.Pred.Release()
	m.fe.Ind.Release()
	if m.ucp != nil {
		m.ucp.Release()
	}
}

// Step advances one cycle and returns the µ-ops committed in it.
func (m *Machine) Step() int {
	now := m.cycle
	committed, flush, flushed := m.be.Cycle(now)
	if flushed {
		m.fe.ResumeAt(flush.Cycle + 1)
	}
	m.dispatch(now, flushed)
	m.fe.Cycle(now)
	if m.ucp != nil {
		m.ucp.Cycle(now)
	}
	m.cycle++
	return committed
}

// dispatch moves ready µ-ops from the frontend queue into the backend;
// flushed reports a misprediction the backend resolved this cycle.
func (m *Machine) dispatch(now uint64, flushed bool) {
	if m.mrc != nil && flushed && m.mrcPending != 0 {
		// The MRC records the corrected-path µ-ops after every
		// misprediction and, on a tag hit, streams them straight to
		// execution (modeled as a fast-deliver credit; §VI-F).
		if m.mrc.Lookup(m.mrcPending) {
			m.fe.GrantFastDeliver(m.mrc.OpsPerEntry())
		}
		m.mrc.Record(m.mrcPending)
		m.mrcPending = 0
	}
	width := m.be.DispatchWidth()
	for i := 0; i < width; i++ {
		if !m.be.CanDispatch(1) {
			return
		}
		u, ok := m.fe.PopUop(now)
		if !ok {
			return
		}
		if u.Mispredict && m.mrc != nil {
			m.mrcPending = u.Inst.NextPC()
		}
		m.be.Dispatch(backend.Uop{
			PC:         u.Inst.PC,
			Class:      u.Inst.Class,
			Dst:        u.Inst.Dst,
			Src1:       u.Inst.Src1,
			Src2:       u.Inst.Src2,
			MemAddr:    u.Inst.MemAddr,
			Mispredict: u.Mispredict,
		})
	}
}

// snapshot captures the counters that are delta-measured across the
// warmup boundary.
type snapshot struct {
	fe     frontend.Stats
	uop    uopcache.Stats
	ucp    core.Stats
	l1i    cache.Stats
	cycles uint64
	insts  uint64
}

func (m *Machine) snap() snapshot {
	s := snapshot{
		fe:     m.fe.Stats(),
		uop:    m.uop.Stats(),
		l1i:    m.mem.L1I.Stats(),
		cycles: m.cycle,
		insts:  m.be.Committed,
	}
	if m.ucp != nil {
		s.ucp = m.ucp.Stats()
	}
	return s
}

// Run executes the configured warmup + measurement phases over src.
func Run(cfg Config, src trace.Source, code core.CodeInfo, traceName string) (Result, error) {
	return RunHooked(cfg, src, code, traceName, nil, nil)
}

// RunHooked is Run with an optional warm-checkpoint store (ckpt.go) and
// an optional progress hook (progress.go). In sampled mode the warmup
// fast-forward is captured once per boundary key and restored on every
// later run sharing it; a full-detail run ignores wc. Results are
// byte-identical with and without either.
func RunHooked(cfg Config, src trace.Source, code core.CodeInfo, traceName string, wc *WarmCheckpoints, hook ProgressFunc) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Sampling.Enabled {
		return runSampled(cfg, src, code, traceName, wc, hook)
	}
	hook.note(StageWarming, 0, 1)
	m := NewMachine(cfg, src, code)
	defer m.release()
	target := cfg.WarmupInsts
	var start snapshot
	warm := false
	lastCommit := m.be.Committed
	stuck := uint64(0)
	for {
		m.Step()
		if m.be.Committed == lastCommit {
			stuck++
			if stuck > 200_000 {
				return Result{}, fmt.Errorf("sim: no commit for %d cycles at cycle %d (pc stall)", stuck, m.cycle)
			}
		} else {
			stuck = 0
			lastCommit = m.be.Committed
		}
		if !warm && m.be.Committed >= target {
			warm = true
			start = m.snap()
			m.fe.ResetHistograms()
			target = cfg.WarmupInsts + cfg.MeasureInsts
			hook.note(StageMeasuring, 0, 1)
		}
		if warm && m.be.Committed >= target {
			break
		}
		if m.fe.Done() && m.be.Drained() {
			if !warm {
				return Result{}, fmt.Errorf("sim: trace ended during warmup (%d committed)", m.be.Committed)
			}
			break
		}
	}
	end := m.snap()
	hook.note(StageMeasuring, 1, 1)
	return buildResult(cfg, traceName, m, start, end), nil
}

func buildResult(cfg Config, traceName string, m *Machine, a, b snapshot) Result {
	r := Result{
		Name:   cfg.Name,
		Trace:  traceName,
		Insts:  b.insts - a.insts,
		Cycles: b.cycles - a.cycles,
	}
	r.SetRates(SubCounters(a.fe, b.fe), SubCounters(a.uop, b.uop))
	r.FE = b.fe
	r.Uop = b.uop
	r.UCP = b.ucp
	r.L1I = b.l1i
	r.StreamLens = m.fe.StreamLens
	r.RefillLat = m.fe.RefillLat
	if m.ucp != nil {
		r.UCPStorageKB = m.ucp.StorageKB()
	}
	return r
}

// SetRates derives the rate metrics (IPC, µ-op cache hit rate, switch
// and conditional-mispredict PKI, prefetch accuracy) from r.Insts,
// r.Cycles and the measured region's frontend and µ-op cache counter
// deltas. It is the one rate formula of every engine — the serial
// full-detail loop, the serial sampled controller and the interval
// executor's reducer (internal/tpar) — so their rates agree to the bit
// whenever their counts do.
func (r *Result) SetRates(fe frontend.Stats, uop uopcache.Stats) {
	if r.Cycles > 0 {
		r.IPC = float64(r.Insts) / float64(r.Cycles)
	}
	if fetched := fe.UopsFromUopCache + fe.UopsFromDecode; fetched > 0 {
		r.UopHitRate = float64(fe.UopsFromUopCache) / float64(fetched)
	}
	if r.Insts > 0 {
		r.SwitchPKI = float64(fe.ModeSwitches) / float64(r.Insts) * 1000
		r.CondMPKI = float64(fe.CondMispredicts) / float64(r.Insts) * 1000
	}
	if uop.PrefetchInserts > 0 {
		r.PrefetchAccuracy = float64(uop.PrefetchUsed) / float64(uop.PrefetchInserts)
	}
}

// DeterminismDigest renders every measured quantity of the run —
// scalars, all counter blocks, and both full distributions — into one
// string. Two runs of the same configuration from the same seed must
// produce byte-identical digests; TestDeterministicDigest and the
// harness determinism test compare them.
func (r Result) DeterminismDigest() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "name=%s trace=%s\n", r.Name, r.Trace)
	fmt.Fprintf(&sb, "insts=%d cycles=%d ipc=%.9f\n", r.Insts, r.Cycles, r.IPC)
	fmt.Fprintf(&sb, "uophit=%.9f switchpki=%.9f condmpki=%.9f pfacc=%.9f\n",
		r.UopHitRate, r.SwitchPKI, r.CondMPKI, r.PrefetchAccuracy)
	fmt.Fprintf(&sb, "fe=%+v\n", r.FE)
	fmt.Fprintf(&sb, "uop=%+v\n", r.Uop)
	fmt.Fprintf(&sb, "ucp=%+v storagekb=%.4f\n", r.UCP, r.UCPStorageKB)
	fmt.Fprintf(&sb, "l1i=%+v\n", r.L1I)
	if r.StreamLens != nil {
		sb.WriteString(r.StreamLens.Render())
	}
	if r.RefillLat != nil {
		sb.WriteString(r.RefillLat.Render())
	}
	// The sampled section only exists for sampled runs, so full-detail
	// digests (and the hotpath golden) are byte-identical to before.
	if s := r.Sampled; s != nil {
		fmt.Fprintf(&sb, "sampled windows=%d skipped=%d ff=%d detailed=%d measured=%d\n",
			s.Windows, s.SkippedInsts, s.FFInsts, s.DetailedInsts, s.MeasuredInsts)
		fmt.Fprintf(&sb, "sampled ipc=%.9f±%.9f mpki=%.9f±%.9f\n",
			s.IPCMean, s.IPCCI95, s.MPKIMean, s.MPKICI95)
		for i, v := range s.WindowIPC {
			fmt.Fprintf(&sb, "sampled w%d ipc=%.9f\n", i, v)
		}
		// The adaptive line only exists for adaptive runs, so
		// fixed-geometry sampled digests are byte-identical to before.
		if s.TargetCI > 0 {
			fmt.Fprintf(&sb, "sampled adaptive target=%.6f budget=%d met=%v\n",
				s.TargetCI, s.WindowBudget, s.TargetMet)
		}
	}
	// The time-parallel section only exists for segmented runs, so
	// serial digests (and the hotpath golden) are byte-identical to
	// before.
	if t := r.TimePar; t != nil {
		fmt.Fprintf(&sb, "timepar segments=%d skipped=%d ff=%d\n",
			t.Segments, t.SkippedInsts, t.FFInsts)
		for i := range t.Boundaries {
			fmt.Fprintf(&sb, "timepar s%d start=%d insts=%d cycles=%d ipc=%.9f\n",
				i, t.Boundaries[i], t.SegInsts[i], t.SegCycles[i], t.SegIPC[i])
		}
	}
	return sb.String()
}
