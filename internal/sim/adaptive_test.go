package sim_test

import (
	"strings"
	"testing"

	"ucp/internal/core"
	"ucp/internal/sim"
)

// adaptiveQuick is quickSampling with the confidence-targeted stop rule
// on: a loose 10% relative target that crypto-class traces hit within a
// few windows, leaving plenty of budget to stop early against.
func adaptiveQuick(target float64) sim.SamplingConfig {
	s := quickSampling()
	s.TargetCI = target
	s.MinWindows = 4
	return s
}

// TestAdaptiveDeterministic pins the adaptive analogue of
// TestSampledDeterministic: the stop decision is a pure function of the
// window-mean sequence, so two passes produce byte-identical digests —
// including the adaptive provenance line.
func TestAdaptiveDeterministic(t *testing.T) {
	mk := func() string {
		cfg := sim.WithUCP(core.DefaultConfig())
		cfg.WarmupInsts = 50_000
		cfg.MeasureInsts = 500_000
		cfg.Sampling = adaptiveQuick(0.10)
		return runOnce(t, "crypto01", cfg).DeterminismDigest()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("adaptive digests differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "sampled adaptive target=") {
		t.Errorf("adaptive digest missing the adaptive provenance line:\n%s", a)
	}
}

// TestAdaptiveStopsEarly is the point of the mode: on a low-variance
// trace a loose target stops well short of the fixed schedule, and the
// windows it did measure are a strict prefix of the fixed-geometry run
// (same geometry, same stream — adaptive only decides when to stop).
func TestAdaptiveStopsEarly(t *testing.T) {
	cfg := sim.Baseline()
	cfg.WarmupInsts = 50_000
	cfg.MeasureInsts = 500_000
	cfg.Sampling = quickSampling()
	fixed := runOnce(t, "crypto01", cfg)

	cfg.Sampling = adaptiveQuick(0.10)
	adaptive := runOnce(t, "crypto01", cfg)

	fs, as := fixed.Sampled, adaptive.Sampled
	if fs == nil || as == nil {
		t.Fatal("missing SampledStats")
	}
	if as.Windows >= fs.Windows {
		t.Fatalf("adaptive ran %d windows, fixed %d — expected an early stop", as.Windows, fs.Windows)
	}
	if !as.TargetMet {
		t.Errorf("adaptive stopped early without reporting TargetMet")
	}
	if as.WindowBudget != fs.Windows {
		t.Errorf("WindowBudget %d, fixed schedule ran %d", as.WindowBudget, fs.Windows)
	}
	if as.IPCCI95 > as.TargetCI*as.IPCMean {
		t.Errorf("claimed half-width %.6f exceeds target %.6f·mean(%.4f)", as.IPCCI95, as.TargetCI, as.IPCMean)
	}
	if as.Windows < 4 {
		t.Errorf("stopped below MinWindows: %d windows", as.Windows)
	}
	for i, v := range as.WindowIPC {
		if fs.WindowIPC[i] != v {
			t.Fatalf("window %d IPC %.9f differs from fixed run's %.9f — adaptive must be a prefix", i, v, fs.WindowIPC[i])
		}
	}
	if fixed.Sampled.TargetCI != 0 || fixed.Sampled.WindowBudget != 0 {
		t.Errorf("fixed-geometry run carries adaptive provenance: %+v", fs)
	}
}

// TestAdaptiveUnmeetableTargetExhaustsBudget pins the other stop path:
// a target no real trace meets runs the whole fixed schedule (or the
// MaxWindows cap) and reports TargetMet=false with an honest (wide)
// interval.
func TestAdaptiveUnmeetableTargetExhaustsBudget(t *testing.T) {
	cfg := sim.Baseline()
	cfg.WarmupInsts = 50_000
	cfg.MeasureInsts = 250_000
	s := quickSampling()
	s.TargetCI = 0.0001
	s.MinWindows = 2
	cfg.Sampling = s
	r := runOnce(t, "srv203", cfg)
	if r.Sampled.TargetMet {
		t.Errorf("0.01%% target reported met at %d windows", r.Sampled.Windows)
	}
	if r.Sampled.Windows != r.Sampled.WindowBudget {
		t.Errorf("exhausted run measured %d of %d budget windows", r.Sampled.Windows, r.Sampled.WindowBudget)
	}

	s.MaxWindows = 3
	s.MinWindows = 2
	cfg.Sampling = s
	r = runOnce(t, "srv203", cfg)
	if r.Sampled.Windows != 3 {
		t.Errorf("MaxWindows=3 run measured %d windows", r.Sampled.Windows)
	}
}

// TestTrailingRemainderWindow pins the geometry fix: a MeasureInsts
// that is not a multiple of PeriodInsts gets one extra trailing window
// over the remainder when the remainder can hold warm+measure, and is
// rejected by Validate when it cannot — never silently dropped.
func TestTrailingRemainderWindow(t *testing.T) {
	cfg := sim.Baseline()
	cfg.WarmupInsts = 50_000
	cfg.MeasureInsts = 200_000
	cfg.Sampling = quickSampling() // 25k period: 8 aligned windows
	aligned := runOnce(t, "crypto01", cfg)
	if got := aligned.Sampled.Windows; got != 8 {
		t.Fatalf("aligned run measured %d windows, want 8", got)
	}

	// 10k remainder ≥ warm+measure (4k+2k): a 9th trailing window.
	cfg.MeasureInsts = 210_000
	trailing := runOnce(t, "crypto01", cfg)
	if got := trailing.Sampled.Windows; got != 9 {
		t.Fatalf("remainder run measured %d windows, want 9", got)
	}
	if trailing.Sampled.MeasuredInsts <= aligned.Sampled.MeasuredInsts {
		t.Errorf("trailing window added no measured instructions: %d vs %d",
			trailing.Sampled.MeasuredInsts, aligned.Sampled.MeasuredInsts)
	}

	// 1k remainder < warm+measure: rejected, not dropped.
	cfg.MeasureInsts = 201_000
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a remainder too short for a trailing window")
	} else if !strings.Contains(err.Error(), "remainder") {
		t.Errorf("unexpected error for short remainder: %v", err)
	}
}

// TestAdaptiveValidate pins the adaptive config bounds.
func TestAdaptiveValidate(t *testing.T) {
	base := func() sim.Config {
		cfg := sim.Baseline()
		cfg.WarmupInsts = 10_000
		cfg.MeasureInsts = 100_000
		cfg.Sampling = sim.SamplingConfig{
			Enabled:       true,
			PeriodInsts:   20_000,
			DetailedInsts: 2_000,
			WarmInsts:     2_000,
			TargetCI:      0.02,
			MinWindows:    2,
		}
		return cfg
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid adaptive config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"negative target", func(c *sim.Config) { c.Sampling.TargetCI = -0.01 }},
		{"implausibly loose target", func(c *sim.Config) { c.Sampling.TargetCI = 0.6 }},
		{"min windows of one", func(c *sim.Config) { c.Sampling.MinWindows = 1 }},
		{"negative min windows", func(c *sim.Config) { c.Sampling.MinWindows = -1 }},
		{"negative max windows", func(c *sim.Config) { c.Sampling.MaxWindows = -1 }},
		{"min exceeds max", func(c *sim.Config) {
			c.Sampling.MinWindows = 6
			c.Sampling.MaxWindows = 5
		}},
		{"bounds without target", func(c *sim.Config) {
			c.Sampling.TargetCI = 0
			c.Sampling.MinWindows = 4
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid adaptive config", tc.name)
		}
	}
	// The stop rule is sequential: an adaptive config runs serially only.
	if err := base().ValidateSegments(1); err != nil {
		t.Errorf("serial adaptive run rejected: %v", err)
	}
	if err := base().ValidateSegments(2); err == nil || !strings.Contains(err.Error(), "drop -segments or -adaptive") {
		t.Errorf("ValidateSegments(2) on an adaptive config = %v, want the window-parallel rejection", err)
	}
}
