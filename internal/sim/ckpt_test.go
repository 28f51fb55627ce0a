package sim_test

import (
	"testing"

	"ucp/internal/backend"
	"ucp/internal/bpred"
	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/prefetch"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// ckptConfig is a sampled configuration small enough for unit tests but
// with every warming tier engaged, so a checkpoint carries non-trivial
// state through all of them.
func ckptConfig(withUCP bool) sim.Config {
	cfg := sim.Baseline()
	if withUCP {
		cfg = sim.WithUCP(core.DefaultConfig())
	}
	cfg.WarmupInsts = 50_000
	cfg.MeasureInsts = 100_000
	cfg.Sampling = quickSampling()
	return cfg
}

// ckptSource builds a fresh generated source for one run. code is nil
// for UCP configs so the restore path exercises the observing wrapper
// (LearnedCode must be relearned during position replay).
func ckptSource(t *testing.T, cfg sim.Config, withUCP bool) (trace.Source, core.CodeInfo) {
	t.Helper()
	prof, ok := trace.ProfileByName("srv203")
	if !ok {
		t.Fatal("profile srv203 missing")
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatalf("building program: %v", err)
	}
	budget := int(cfg.WarmupInsts+cfg.MeasureInsts) + 200_000
	src := trace.NewLimit(trace.NewWalker(prog), budget)
	if withUCP {
		return src, nil
	}
	return src, prog
}

// TestCkptRestoredMatchesCold pins the central reuse guarantee: a run
// that restores the warmup fast-forward from a checkpoint produces a
// determinism digest byte-identical to a run that pays it, for both the
// baseline machine and a UCP machine on the learned-code path.
func TestCkptRestoredMatchesCold(t *testing.T) {
	for _, withUCP := range []bool{false, true} {
		cfg := ckptConfig(withUCP)
		run := func(wc *sim.WarmCheckpoints) string {
			src, code := ckptSource(t, cfg, withUCP)
			res, err := sim.RunHooked(cfg, src, code, "srv203", wc, nil)
			if err != nil {
				t.Fatalf("ucp=%v: run failed: %v", withUCP, err)
			}
			return res.DeterminismDigest()
		}
		cold := run(nil)
		store := ckpt.NewStore("")
		wc := &sim.WarmCheckpoints{Store: store, TraceID: "srv203-test"}
		leader := run(wc)
		if store.Len() != 1 {
			t.Fatalf("ucp=%v: store holds %d checkpoints, want 1", withUCP, store.Len())
		}
		restored := run(wc)
		if leader != cold {
			t.Errorf("ucp=%v: leader (capturing) digest differs from cold run", withUCP)
		}
		if restored != cold {
			t.Errorf("ucp=%v: restored digest differs from cold run:\n%s\n---\n%s", withUCP, restored, cold)
		}
	}
}

// TestCkptDiskRoundTrip pins that a checkpoint persisted by one store
// restores identically through a second store on the same directory —
// the cross-process sweep case.
func TestCkptDiskRoundTrip(t *testing.T) {
	cfg := ckptConfig(true)
	dir := t.TempDir()
	run := func(store *ckpt.Store) string {
		src, code := ckptSource(t, cfg, true)
		res, err := sim.RunHooked(cfg, src, code, "srv203",
			&sim.WarmCheckpoints{Store: store, TraceID: "srv203-test"}, nil)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return res.DeterminismDigest()
	}
	first := run(ckpt.NewStore(dir))
	second := ckpt.NewStore(dir)
	if got := run(second); got != first {
		t.Errorf("disk-restored digest differs from capturing run")
	}
	if second.Len() != 1 {
		t.Errorf("second store memoized %d checkpoints, want 1 (disk hit)", second.Len())
	}
}

// warmupKey is the checkpoint key of a sampled config's warmup: a
// boundary at WarmupInsts under the sampling horizons, with no detailed
// warm of its own.
func warmupKey(cfg sim.Config, traceID string) string {
	h := cfg.Sampling.BoundaryWarm()
	h.DetailedInsts = 0
	return sim.BoundaryKey(cfg, traceID, cfg.WarmupInsts, h)
}

// TestBoundaryKeyNormalization pins which config fields share a
// sampled warmup's checkpoint key. Measurement-phase parameters — the
// window geometry and the adaptive stop rule among them — must not
// split keys (that is the whole point of the reuse), and anything the
// fast-forward can observe must.
func TestBoundaryKeyNormalization(t *testing.T) {
	base := ckptConfig(true)
	key := warmupKey(base, "tr")

	shared := map[string]func(*sim.Config){
		"Name":                   func(c *sim.Config) { c.Name = "other" },
		"MeasureInsts":           func(c *sim.Config) { c.MeasureInsts *= 2 },
		"Backend":                func(c *sim.Config) { c.Backend = backend.Config{ROB: 1} },
		"L1IPrefetcher":          func(c *sim.Config) { c.L1IPrefetcher = "fnlmma" },
		"MRC":                    func(c *sim.Config) { c.MRC = &prefetch.MRCConfig{} },
		"UCP.StopThreshold":      func(c *sim.Config) { u := *c.UCP; u.StopThreshold++; c.UCP = &u },
		"UCP.Estimator":          func(c *sim.Config) { u := *c.UCP; u.Estimator = bpred.EstimatorTageConf; c.UCP = &u },
		"Sampling.PeriodInsts":   func(c *sim.Config) { c.Sampling.PeriodInsts *= 2 },
		"Sampling.DetailedInsts": func(c *sim.Config) { c.Sampling.DetailedInsts *= 2 },
		"Sampling.WarmInsts":     func(c *sim.Config) { c.Sampling.WarmInsts *= 2 },
		"Sampling.TargetCI":      func(c *sim.Config) { c.Sampling.TargetCI = 0.05 },
		"Sampling.MinWindows":    func(c *sim.Config) { c.Sampling.TargetCI, c.Sampling.MinWindows = 0.05, 4 },
		"Sampling.MaxWindows":    func(c *sim.Config) { c.Sampling.TargetCI, c.Sampling.MaxWindows = 0.05, 9 },
	}
	for name, mut := range shared {
		c := base
		mut(&c)
		if warmupKey(c, "tr") != key {
			t.Errorf("changing %s split the warmup key; the fast-forward cannot observe it", name)
		}
	}

	split := map[string]func(*sim.Config){
		"Pred":                    func(c *sim.Config) { c.Pred = bpred.Config8KB() },
		"WarmupInsts":             func(c *sim.Config) { c.WarmupInsts++ },
		"Sampling.FFWarmInsts":    func(c *sim.Config) { c.Sampling.FFWarmInsts *= 2 },
		"Sampling.CacheWarmInsts": func(c *sim.Config) { c.Sampling.CacheWarmInsts++ },
		"Sampling.BPWarmInsts":    func(c *sim.Config) { c.Sampling.BPWarmInsts++ },
		"UCP presence":            func(c *sim.Config) { c.UCP = nil },
		"UCP.AltBP":               func(c *sim.Config) { u := *c.UCP; u.AltBP = bpred.Config64KB(); c.UCP = &u },
	}
	for name, mut := range split {
		c := base
		mut(&c)
		if warmupKey(c, "tr") == key {
			t.Errorf("changing %s kept the warmup key; the fast-forward observes it", name)
		}
	}
	if warmupKey(base, "other-trace") == key {
		t.Error("different trace IDs share a warmup key")
	}
	// A segment boundary at the same position with a detailed warm is a
	// different state (the fast-forward stops DetailedInsts earlier).
	seg := base.Sampling.BoundaryWarm()
	if sim.BoundaryKey(base, "tr", base.WarmupInsts, seg) == key {
		t.Error("a boundary with a detailed warm shares the warmup key")
	}
}

// TestBoundaryKeyPinned pins one full-detail segment boundary key to
// its hex digest, so a change to the key derivation — which would
// orphan every on-disk boundary checkpoint — cannot land unnoticed.
// Bump BoundaryKeySchema and update the literal together.
func TestBoundaryKeyPinned(t *testing.T) {
	const want = "e9b786038e29d34e388b3ef634f4f6e97d44fd8aee6a3c3afb9247e6edcf7eae"
	cfg := sim.WithUCP(core.DefaultConfig())
	if got := sim.BoundaryKey(cfg, "srv203", 300_000, sim.DefaultBoundaryWarm()); got != want {
		t.Errorf("BoundaryKey = %s, want %s", got, want)
	}
}

// TestCkptForeignBlobRejected plants a structurally valid checkpoint
// captured under one machine geometry beneath another geometry's key
// (simulating a key-derivation bug or a tampered cache directory) and
// pins that the restore fails loudly instead of loading skewed state.
func TestCkptForeignBlobRejected(t *testing.T) {
	cfgA := ckptConfig(false)
	store := ckpt.NewStore("")
	wcA := &sim.WarmCheckpoints{Store: store, TraceID: "srv203-test"}
	src, code := ckptSource(t, cfgA, false)
	if _, err := sim.RunHooked(cfgA, src, code, "srv203", wcA, nil); err != nil {
		t.Fatalf("capturing run failed: %v", err)
	}
	blobA, hit, _ := store.Acquire(warmupKey(cfgA, wcA.TraceID))
	if hit == ckpt.Miss {
		t.Fatal("capturing run published nothing")
	}

	// A different predictor geometry has differently sized tables, so
	// loading blobA must fail the length checks.
	cfgB := ckptConfig(false)
	cfgB.Pred = bpred.Config8KB()
	keyB := warmupKey(cfgB, wcA.TraceID)
	_, hit, release := store.Acquire(keyB)
	if hit != ckpt.Miss {
		t.Fatal("foreign key unexpectedly present")
	}
	release(blobA)

	src, code = ckptSource(t, cfgB, false)
	if _, err := sim.RunHooked(cfgB, src, code, "srv203", wcA, nil); err == nil {
		t.Fatal("restore from a foreign-geometry checkpoint succeeded; want geometry error")
	}
}
