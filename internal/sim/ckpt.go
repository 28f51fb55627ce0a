package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ucp/internal/backend"
	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/trace"
)

// This file connects the warming pyramid to internal/ckpt. warmTo is the
// one checkpointed operation: fast-forward a fresh machine from position
// zero to a boundary under a BoundaryWarm's horizons (the sampled warmup
// is a boundary with a zero detailed warm). Its end state is captured
// once per BoundaryKey and restored everywhere else. The key hashes
// exactly the inputs the fast-forward depends on, so configs that differ
// only in measurement-phase parameters (measurement length, backend
// sizing, a UCP walk threshold) share one checkpoint, and restored runs
// are byte-identical to cold ones.

// WarmCheckpoints attaches a checkpoint store to a run. TraceID must
// identify the instruction stream exactly: generated traces use the
// profile identity, file traces the trace digest (trace.Arena.ID).
type WarmCheckpoints struct {
	Store   *ckpt.Store
	TraceID string
}

// BoundaryKeySchema versions the boundary-checkpoint key derivation.
// Bump it when the normalization below changes, so old on-disk
// checkpoints become unreachable rather than wrongly shared. Exported
// so the cmd binaries' -version output can stamp it (debugging
// checkpoint compatibility across sweepd servers and clients).
const BoundaryKeySchema = "ucp-tpar-ckpt-1"

// warmConfig strips cfg down to the fields the fast-forward can
// observe. Everything zeroed here is provably untouched on the
// functional-warm path (frontend/functional.go, backend/functional.go,
// core/functional.go, cache/warm.go), or is keyed explicitly instead:
//
//   - Name, MeasureInsts: labeling and measurement length.
//   - WarmupInsts: the boundary position is keyed explicitly, so runs
//     with different warmup/segment geometry share any boundary they
//     place at the same position.
//   - Frontend: FTQ/queue/width sizing — the fetch engine never runs.
//   - Backend: ROB/port sizing — functional commit only counts.
//   - L1IPrefetcher, MRC: timing mechanisms, explicitly not driven.
//   - Sampling: its warming horizons reach the key as the BoundaryWarm;
//     the window geometry and the adaptive stop rule only govern the
//     measured region, so refinement probes at progressively tighter
//     TargetCI all share one warm checkpoint — that sharing is what
//     makes autopilot refinement rounds nearly free.
//
// The UCP config reduces to the alternate predictors that shadow-train
// during warming (AltBP, UseAltInd, AltInd) plus engine presence;
// walk-path parameters (Estimator, StopThreshold, queue sizing, ...)
// only matter once detailed windows start.
func warmConfig(cfg Config) Config {
	cfg.Name = ""
	cfg.WarmupInsts = 0
	cfg.MeasureInsts = 0
	cfg.Frontend = frontend.Config{}
	cfg.Backend = backend.Config{}
	cfg.L1IPrefetcher = ""
	cfg.MRC = nil
	cfg.Sampling = SamplingConfig{}
	if cfg.UCP != nil {
		cfg.UCP = &core.Config{
			AltBP:     cfg.UCP.AltBP,
			UseAltInd: cfg.UCP.UseAltInd,
			AltInd:    cfg.UCP.AltInd,
		}
	}
	return cfg
}

// BoundaryKey derives the content address of the functional-warm state
// at a boundary: the machine state after fast-forwarding to
// start−warm.DetailedInsts under warm's horizons. Keys are hex SHA-256,
// compatible with the store's sharded layout.
func BoundaryKey(cfg Config, traceID string, start uint64, warm BoundaryWarm) string {
	env := struct {
		Schema string
		Model  string
		Trace  string
		Start  uint64
		Warm   BoundaryWarm
		Config Config
	}{BoundaryKeySchema, ModelVersion, traceID, start, warm, warmConfig(cfg)}
	b, err := json.Marshal(env)
	if err != nil {
		// Config is a plain data struct; Marshal cannot fail on it.
		panic("sim: boundary key marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// warmTo fast-forwards the machine from position zero to `to` under h's
// horizons. With a checkpoint store attached the fast-forward runs at
// most once per boundary key: the first run to reach `to` publishes the
// state and every other run — later, or a concurrent sibling blocked on
// the same key — restores it instead.
func (m *Machine) warmTo(to uint64, h BoundaryWarm, wc *WarmCheckpoints) error {
	if wc == nil || wc.Store == nil || to == 0 {
		return m.fastForward(to, h)
	}
	key := BoundaryKey(m.cfg, wc.TraceID, to+h.DetailedInsts, h)
	blob, hit, release := wc.Store.Acquire(key)
	if hit != ckpt.Miss {
		if err := m.restoreWarm(blob); err != nil {
			return ckpt.KeyError(key, err)
		}
		return nil
	}
	// Leader: pay the fast-forward and publish. The deferred abort is
	// once-guarded, so after a successful publish it is a no-op; on any
	// error path it hands leadership to a waiter instead of deadlocking
	// the flight.
	defer release(nil)
	if err := m.fastForward(to, h); err != nil {
		return err
	}
	// Size the writer a little above the store's mean blob, so a
	// capture seals with one copy instead of growing step by step from
	// the header.
	size := 0
	if n := wc.Store.Len(); n > 0 {
		size = wc.Store.Bytes() / n * 9 / 8
	}
	w := ckpt.NewWriter(size)
	m.saveWarm(w)
	release(w.Seal())
	return nil
}

// saveWarm serializes the machine's functional-warm state at the end
// of a fast-forward: the stream position split (skipped vs
// functionally committed), the backend's commit counters, and every
// structure the warm path mutates. State not saved here is exactly the
// state the fast-forward never touches, which a freshly constructed
// machine already holds.
func (m *Machine) saveWarm(w *ckpt.Writer) {
	w.Section("machine")
	w.Uvarint(m.skipped)
	w.Uvarint(m.ffInsts)
	w.Uvarint(m.cycle)
	w.Uvarint(m.be.Committed)
	w.Uvarint(m.be.LoadsIssued)
	w.Uvarint(m.be.StoreIssued)
	m.fe.SaveWarmState(w)
	w.Bool(m.ucp != nil)
	if m.ucp != nil {
		m.ucp.SaveWarmState(w)
	}
}

// restoreWarm rebuilds the capture-point state on a freshly constructed
// machine: it replays the trace to the captured position (relearning
// LearnedCode through the observing wrapper on recorded traces — an
// arena cursor seeks through its index, a generator skips without
// materializing instructions), then loads
// every serialized structure. The restored machine is bit-equal to one
// that ran the fast-forward itself, so all downstream results are
// byte-identical.
func (m *Machine) restoreWarm(blob []byte) error {
	r, err := ckpt.Open(blob)
	if err != nil {
		return err
	}
	r.Section("machine")
	skipped := r.Uvarint()
	ffInsts := r.Uvarint()
	cycle := r.Uvarint()
	committed := r.Uvarint()
	loads := r.Uvarint()
	stores := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	pos := skipped + committed
	if got := uint64(trace.SkipN(m.src, int(pos))); got != pos {
		return fmt.Errorf("sim: trace ended replaying checkpoint position (%d of %d)", got, pos)
	}
	m.fe.LoadWarmState(r)
	hasUCP := r.Bool()
	if r.Err() == nil && hasUCP != (m.ucp != nil) {
		r.Failf("machine: checkpoint UCP presence %v, machine %v", hasUCP, m.ucp != nil)
	}
	if m.ucp != nil && r.Err() == nil {
		m.ucp.LoadWarmState(r)
	}
	if err := r.Close(); err != nil {
		return err
	}
	m.skipped, m.ffInsts = skipped, ffInsts
	m.cycle = cycle
	m.be.Committed = committed
	m.be.LoadsIssued = loads
	m.be.StoreIssued = stores
	return nil
}
