package sim

import (
	"strings"
	"testing"

	"ucp/internal/core"
)

// TestConfigValidate exercises the machine-level validation that Run
// performs before assembling anything: broken sub-structure geometries
// must be rejected with an explanatory error, and every shipped
// configuration must pass.
func TestConfigValidate(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("baseline rejected: %v", err)
	}
	if err := WithUCP(core.DefaultConfig()).Validate(); err != nil {
		t.Fatalf("UCP config rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"non-power-of-two BTB entries", func(c *Config) { c.BTB.Entries = 3000 }, "power of two"},
		{"non-power-of-two BTB banks", func(c *Config) { c.BTB.Banks = 12 }, "power of two"},
		{"BTB ways exceed entries", func(c *Config) { c.BTB.Entries = 4; c.BTB.Ways = 8 }, "exceeds"},
		{"zero uop-cache capacity", func(c *Config) { c.Uop.Ops = 0 }, "Ops"},
		{"uop entry wider than 4-bit count", func(c *Config) { c.Uop.OpsPerEntry = 16 }, "OpsPerEntry"},
		{"uop branches exceed 2-bit count", func(c *Config) { c.Uop.MaxBranches = 4 }, "MaxBranches"},
		{"zero RAS", func(c *Config) { c.RASEntries = 0 }, "RASEntries"},
		{"unknown prefetcher", func(c *Config) { c.L1IPrefetcher = "mystery" }, "prefetcher"},
		{"zero measurement", func(c *Config) { c.MeasureInsts = 0 }, "MeasureInsts"},
		{"broken ITTAGE", func(c *Config) { c.Ind.Tables = 0 }, "Tables"},
		{"sub-line DTLB page", func(c *Config) { c.Memory.DTLB.PageBits = 4 }, "PageBits"},
		{"BTB tags past 31 bits", func(c *Config) { c.BTB.Entries = 1024 }, "set count of 128 leaves a 32-bit tag"},
		{"one-set L1I", func(c *Config) { c.Memory.L1I.SizeBytes = 8 * 64 }, "L1I: a 41-bit address over a set count of 1 leaves a 35-bit tag"},
		{"fully associative LLC", func(c *Config) { c.Memory.LLC.Ways = c.Memory.LLC.SizeBytes / 64 }, "LLC: a 41-bit address over a set count of 1"},
		{"one-set DTLB of 64-byte pages", func(c *Config) { c.Memory.DTLB.Entries, c.Memory.DTLB.PageBits = 6, 6 }, "DTLB: a 41-bit address over a set count of 1"},
		{"zero-way L2", func(c *Config) { c.Memory.L2.Ways = 0 }, "L2 Ways must be positive"},
		{"zero-way STLB", func(c *Config) { c.Memory.STLB.Ways = 0 }, "STLB Ways must be positive"},
		{"broken TAGE bimodal", func(c *Config) { c.Pred.Tage.BimodalBits = 0 }, "BimodalBits"},
		{"TAGE tag fold of width 0", func(c *Config) { c.Pred.Tage.TagBase = 1 }, "TagBase must be in [2,15]"},
		{"Alt-BP tag fold of width 0", func(c *Config) { c.UCP.AltBP.Tage.TagBase = 1 }, "TagBase must be in [2,15]"},
		{"TAGE history past the ring", func(c *Config) { c.Pred.Tage.MaxHist = 2000 }, "MaxHist 2000 exceeds the 1024-bit history ring"},
		{"TAGE lengths pushed past the ring", func(c *Config) { c.Pred.Tage.MinHist, c.Pred.Tage.MaxHist = 1020, 1024 },
			"table 12's history length 1031 exceeds the 1024-bit history ring"},
		{"broken UCP sub-config", func(c *Config) {
			u := core.DefaultConfig()
			u.WalkWidth = 0
			c.UCP = &u
		}, "WalkWidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := WithUCP(core.DefaultConfig())
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestRunRejectsInvalidConfig proves validation is wired into Run, not
// just available.
func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := Baseline()
	cfg.Uop.MaxBranches = 7
	_, err := Run(cfg, nil, nil, "none")
	if err == nil || !strings.Contains(err.Error(), "MaxBranches") {
		t.Fatalf("Run did not reject invalid config: %v", err)
	}
}
