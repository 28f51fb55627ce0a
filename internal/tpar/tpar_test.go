package tpar_test

import (
	"strings"
	"sync"
	"testing"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/tpar"
	"ucp/internal/trace"
)

// testArena decodes prof into an arena of exactly n instructions; every
// interval draws a fresh cursor from it, like runq does.
func testArena(t *testing.T, profName string, n uint64) (*trace.Arena, *trace.Program) {
	t.Helper()
	prof, ok := trace.ProfileByName(profName)
	if !ok {
		t.Fatalf("unknown profile %q", profName)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("building %s: %v", profName, err)
	}
	return trace.ArenaFromSource(trace.NewWalker(prog), int(n)), prog
}

// slack covers the detailed engine's read-ahead past a run's end.
const slack = 200_000

// sampledCfg is a cheap 4-window sampled geometry: 20K warmup, 40K
// measured, one 2K window per 10K period.
func sampledCfg() sim.Config {
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 20_000, 40_000
	cfg.Sampling = sim.SamplingConfig{
		Enabled:       true,
		PeriodInsts:   10_000,
		DetailedInsts: 2_000,
		WarmInsts:     2_000,
		FFWarmInsts:   5_000,
	}
	return cfg
}

// mode is one kind of interval the executor runs: full-detail segments
// or sampled windows, each with a 4-interval plan over 20K+40K insts.
type mode struct {
	name     string
	unit     string // what errors call one interval
	cfg      sim.Config
	sections []string // digest sections the parallel result must carry
}

func modes() []mode {
	fd := sim.WithUCP(core.DefaultConfig())
	fd.WarmupInsts, fd.MeasureInsts = 20_000, 40_000
	return []mode{
		{"segments", "segment", fd, []string{"timepar segments=4", "timepar s0 ", "timepar s3 "}},
		{"windows", "window", sampledCfg(), []string{"sampled windows=4", "sampled w0 ipc=", "timepar segments=4", "timepar s3 "}},
	}
}

// run executes m's config through the executor over a.
func (m mode) run(t *testing.T, a *trace.Arena, prog *trace.Program, opts tpar.Options) (sim.Result, error) {
	t.Helper()
	if opts.Segments == 0 {
		opts.Segments = 4
	}
	return tpar.Run(m.cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01", opts)
}

// TestPlan pins the segment geometry: contiguous coverage of exactly
// [warmup, warmup+measure), lengths differing by at most one with the
// remainder on the leading segments (the trailing segment is the
// partial one), and clamping when asked for more segments than
// instructions.
func TestPlan(t *testing.T) {
	specs := tpar.Plan(1_000, 10_007, 4)
	if len(specs) != 4 {
		t.Fatalf("got %d segments, want 4", len(specs))
	}
	wantLens := []uint64{2_502, 2_502, 2_502, 2_501} // 10_007 = 4*2501 + 3
	pos := uint64(1_000)
	for i, s := range specs {
		if s.Index != i {
			t.Errorf("segment %d carries index %d", i, s.Index)
		}
		if s.Start != pos {
			t.Errorf("segment %d starts at %d, want %d (gap or overlap)", i, s.Start, pos)
		}
		if got := s.End - s.Start; got != wantLens[i] {
			t.Errorf("segment %d spans %d insts, want %d", i, got, wantLens[i])
		}
		pos = s.End
	}
	if pos != 11_007 {
		t.Errorf("plan ends at %d, want warmup+measure = 11_007", pos)
	}

	// More segments than instructions: clamp to one inst per segment.
	specs = tpar.Plan(0, 3, 10)
	if len(specs) != 3 {
		t.Fatalf("overclamped plan has %d segments, want 3", len(specs))
	}
	for i, s := range specs {
		if s.End-s.Start != 1 {
			t.Errorf("clamped segment %d spans %d insts, want 1", i, s.End-s.Start)
		}
	}

	// Degenerate inputs collapse to a single serial segment.
	if got := len(tpar.Plan(5, 100, 0)); got != 1 {
		t.Errorf("n=0 planned %d segments, want 1", got)
	}
}

// TestSegmentsOneMatchesSerial: a one-segment run must route through
// the serial engine and be byte-identical to sim.Run — the identity
// anchor every other invariance test leans on.
func TestSegmentsOneMatchesSerial(t *testing.T) {
	cfg := sim.WithUCP(core.DefaultConfig())
	cfg.WarmupInsts, cfg.MeasureInsts = 20_000, 40_000
	a, prog := testArena(t, "crypto01", 60_000+slack)

	serial, err := sim.Run(cfg, a.Cursor(), prog, "crypto01")
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	one, err := tpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		tpar.Options{Segments: 1})
	if err != nil {
		t.Fatalf("tpar run: %v", err)
	}
	if got, want := one.DeterminismDigest(), serial.DeterminismDigest(); got != want {
		t.Fatalf("segments=1 digest differs from serial:\n%s\n---\n%s", got, want)
	}
	if one.TimePar != nil {
		t.Error("segments=1 result carries TimeParStats; it must be the serial result verbatim")
	}
}

// TestWorkerCountInvariance is the tentpole determinism bar: the same
// parallel run must produce byte-identical digests at any worker count,
// including the sections describing every interval — and a sampled
// block exactly when the config is sampled.
func TestWorkerCountInvariance(t *testing.T) {
	a, prog := testArena(t, "crypto01", 60_000+slack)
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			run := func(workers int) sim.Result {
				r, err := m.run(t, a, prog, tpar.Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return r
			}
			r1 := run(1)
			d1 := r1.DeterminismDigest()
			for _, w := range []int{2, 8} {
				if dw := run(w).DeterminismDigest(); dw != d1 {
					t.Fatalf("digest differs between workers=1 and workers=%d:\n%s\n---\n%s", w, d1, dw)
				}
			}
			for _, want := range m.sections {
				if !strings.Contains(d1, want) {
					t.Errorf("digest missing %q section:\n%s", want, d1)
				}
			}
			if sampled := r1.Sampled != nil; sampled != m.cfg.Sampling.Enabled {
				t.Errorf("Sampled block present = %v for a config with Sampling.Enabled = %v", sampled, m.cfg.Sampling.Enabled)
			}
		})
	}
}

// TestCheckpointRestoredRunIdentical: a run restoring all boundary
// checkpoints captured by an earlier run must be byte-identical to the
// cold run — and actually hit the store.
func TestCheckpointRestoredRunIdentical(t *testing.T) {
	a, prog := testArena(t, "crypto01", 60_000+slack)
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			store := ckpt.NewStore("")
			run := func(st *ckpt.Store) sim.Result {
				r, err := m.run(t, a, prog, tpar.Options{Workers: 2, Checkpoints: st, TraceID: "test:" + a.ID()})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return r
			}
			cold := run(nil)
			captured := run(store)
			if store.Len() == 0 {
				t.Fatal("capturing run published no boundary checkpoints")
			}
			hitsBefore := store.Hits()
			restored := run(store)
			if store.Hits() <= hitsBefore {
				t.Fatal("restore run never hit the checkpoint store")
			}
			cd := cold.DeterminismDigest()
			if d := captured.DeterminismDigest(); d != cd {
				t.Fatalf("capturing run digest differs from cold:\n%s\n---\n%s", d, cd)
			}
			if d := restored.DeterminismDigest(); d != cd {
				t.Fatalf("checkpoint-restored run digest differs from cold:\n%s\n---\n%s", d, cd)
			}
		})
	}
}

// TestErrorSelection: over an arena truncated inside interval 2,
// intervals 2 and 3 both fail; the run must report interval 2 — the
// failure a serial run would hit first — with the same error at every
// worker count, whatever order the failures complete in.
func TestErrorSelection(t *testing.T) {
	a, prog := testArena(t, "crypto01", 49_000) // inside segment [40K, 50K) and window [48K, 50K)
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			var first string
			for _, w := range []int{1, 2, 8} {
				_, err := m.run(t, a, prog, tpar.Options{Workers: w})
				if err == nil {
					t.Fatalf("workers=%d: run over a truncated trace succeeded", w)
				}
				if want := m.unit + " 2:"; !strings.Contains(err.Error(), want) {
					t.Fatalf("workers=%d: error %q does not name %q", w, err, want)
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Fatalf("error differs between worker counts:\n%s\n---\n%s", first, err)
				}
			}
		})
	}
}

// TestHookSequence pins the progress contract at 8 workers: exactly one
// warming event, then one event per interval with WindowsDone counting
// 1..N against a constant WindowsTotal.
func TestHookSequence(t *testing.T) {
	a, prog := testArena(t, "crypto01", 60_000+slack)
	for _, m := range modes() {
		t.Run(m.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				events []sim.Progress
			)
			hook := func(p sim.Progress) {
				mu.Lock()
				defer mu.Unlock()
				events = append(events, p)
			}
			if _, err := m.run(t, a, prog, tpar.Options{Workers: 8, Hook: hook}); err != nil {
				t.Fatal(err)
			}
			const n = 4
			if len(events) != n+1 {
				t.Fatalf("got %d events, want %d: %+v", len(events), n+1, events)
			}
			if events[0] != (sim.Progress{Stage: sim.StageWarming, WindowsTotal: n}) {
				t.Errorf("first event = %+v, want warming 0/%d", events[0], n)
			}
			for i, e := range events[1:] {
				want := sim.Progress{Stage: sim.StageMeasuring, WindowsDone: i + 1, WindowsTotal: n}
				if e != want {
					t.Errorf("event %d = %+v, want %+v", i+1, e, want)
				}
			}
		})
	}
}

// TestMoreSegmentsThanInsts: asking for more segments than measured
// instructions must clamp, not fail or emit empty spans.
func TestMoreSegmentsThanInsts(t *testing.T) {
	cfg := sim.Baseline()
	cfg.WarmupInsts, cfg.MeasureInsts = 2_000, 5
	a, prog := testArena(t, "crypto01", 2_005+slack)
	r, err := tpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		tpar.Options{Segments: 64, Workers: 4})
	if err != nil {
		t.Fatalf("clamped run failed: %v", err)
	}
	if r.TimePar == nil || r.TimePar.Segments != 5 {
		t.Fatalf("TimePar = %+v, want 5 clamped segments", r.TimePar)
	}
	if r.Insts < 5 {
		t.Errorf("measured %d insts, want >= 5", r.Insts)
	}
}

// TestMatchesSerialSampledGeometry: the parallel run must measure
// exactly the windows the serial sampled controller measures — same
// count, same measured instruction total — and estimate a close IPC
// (the residual is the window-independence error, bounded loosely here
// and measured precisely by the check.sh gate).
func TestMatchesSerialSampledGeometry(t *testing.T) {
	cfg := sampledCfg()
	a, prog := testArena(t, "crypto01", 60_000+slack)

	serial, err := sim.Run(cfg, a.Cursor(), prog, "crypto01")
	if err != nil {
		t.Fatalf("serial sampled run: %v", err)
	}
	par, err := tpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		tpar.Options{Segments: 4, Workers: 2})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if par.Sampled.Windows != serial.Sampled.Windows {
		t.Errorf("windows: parallel %d, serial %d", par.Sampled.Windows, serial.Sampled.Windows)
	}
	// Window ends are commit-granular (runUntil overshoots by up to one
	// commit window, deterministically but state-dependently), so the
	// totals may differ by a few instructions per window — never more.
	diff := int64(par.Sampled.MeasuredInsts) - int64(serial.Sampled.MeasuredInsts)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(16*par.Sampled.Windows) {
		t.Errorf("measured insts: parallel %d, serial %d (beyond commit-width overshoot)",
			par.Sampled.MeasuredInsts, serial.Sampled.MeasuredInsts)
	}
	if serial.IPC <= 0 {
		t.Fatalf("serial IPC = %g", serial.IPC)
	}
	if relErr := (par.IPC - serial.IPC) / serial.IPC; relErr > 0.10 || relErr < -0.10 {
		t.Errorf("window-independence IPC error %.4f exceeds the loose 10%% test bound (parallel %.4f, serial %.4f)",
			relErr, par.IPC, serial.IPC)
	}
}

// TestAdaptiveSegmentsRejected: an adaptive stop rule is sequential,
// so the executor refuses an adaptive sampled config outright — through
// sim.Config.ValidateSegments — instead of running any window.
func TestAdaptiveSegmentsRejected(t *testing.T) {
	cfg := sampledCfg()
	cfg.Sampling.TargetCI = 0.10
	calls := 0
	_, err := tpar.Run(cfg, func() trace.Source { calls++; return nil }, nil, "crypto01",
		tpar.Options{Segments: 4, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "drop -segments or -adaptive") {
		t.Fatalf("adaptive run with 4 segments: err = %v, want the ValidateSegments rejection", err)
	}
	if calls != 0 {
		t.Errorf("rejected run opened %d stream(s), want 0", calls)
	}
}

// TestTrailingRemainderWindow: a period-unaligned MeasureInsts gets a
// trailing window over the remainder, in parallel exactly as in serial.
func TestTrailingRemainderWindow(t *testing.T) {
	cfg := sampledCfg()
	cfg.MeasureInsts = 45_000 // 4 full periods + 5K remainder >= warm+measure
	a, prog := testArena(t, "crypto01", 65_000+slack)
	r, err := tpar.Run(cfg, func() trace.Source { return a.Cursor() }, prog, "crypto01",
		tpar.Options{Segments: 4, Workers: 4})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if r.Sampled.Windows != 5 {
		t.Fatalf("windows = %d, want 4 full + 1 trailing", r.Sampled.Windows)
	}
	if got := r.TimePar.Boundaries[4]; got != 20_000+45_000-2_000 {
		t.Errorf("trailing window starts at %d, want measure end - DetailedInsts", got)
	}
}
