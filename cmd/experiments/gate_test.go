package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ucp/internal/autopilot"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd"
)

// checkCase breaks one bound of a passing set of passes; want is the
// one violation it must produce ("" = none).
type checkCase[P any] struct {
	name string
	mut  func(*P)
	want string
}

// runCheckCases runs each case against fresh passing passes and
// requires exactly the matching violation.
func runCheckCases[P any](t *testing.T, passing func() P, check func(P) []string, cases []checkCase[P]) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := passing()
			tc.mut(&p)
			violations := check(p)
			if tc.want == "" {
				if len(violations) != 0 {
					t.Fatalf("unexpected violations: %q", violations)
				}
				return
			}
			if len(violations) != 1 || !strings.Contains(violations[0], tc.want) {
				t.Fatalf("violations %q, want exactly one containing %q", violations, tc.want)
			}
		})
	}
}

// digests returns n distinct per-config digests.
func digests(n int) []string {
	d := make([]string, n)
	for i := range d {
		d[i] = fmt.Sprintf("digest-%d", i)
	}
	return d
}

// sweepJobs returns n jobs named cfg0..cfg<n-1>.
func sweepJobs(n int) []runq.Job {
	jobs := make([]runq.Job, n)
	for i := range jobs {
		jobs[i].Config.Name = fmt.Sprintf("cfg%d", i)
	}
	return jobs
}

// gateCores is the core count the fixtures of the non-parallel gates
// ran on: the host's, as a real run stamps it.
var gateCores = hostCores()

func passingSample() samplePasses {
	passes := samplePasses{cores: gateCores}
	for _, pt := range sampleGatePoints {
		sampled := sim.Result{Name: pt.label, Insts: 1000, IPC: 0.5,
			Sampled: &sim.SampledStats{Windows: 31, IPCMean: 0.5, IPCCI95: 0.01}}
		passes.points = append(passes.points, samplePass{
			label: pt.label,
			full:  sim.Result{Name: pt.label, IPC: 0.501},
			// The repeat shares the sampled run's stats, as an identical
			// rerun would produce them.
			sampled: sampled, again: sampled,
			fullDur: 20 * time.Second, sampledDur: time.Second,
		})
	}
	return passes
}

func TestSampleGateCheck(t *testing.T) {
	check := func(p samplePasses) []string { v, _ := checkSample(p); return v }
	runCheckCases(t, passingSample, check, []checkCase[samplePasses]{
		{"passes", func(*samplePasses) {}, ""},
		{"digest diverges", func(p *samplePasses) { p.points[1].again.Cycles++ }, "baseline: two sampled passes digest differently"},
		{"ipc error", func(p *samplePasses) { p.points[2].full.IPC = 0.52 }, "UCP: IPC error 3.85% exceeds the 2% bound"},
		// Both IPCs 0 made |0−0|/0 a NaN, which compared as passing.
		{"zero-IPC reference", func(p *samplePasses) {
			pt := &p.points[0]
			pt.full.IPC, pt.sampled.IPC, pt.again.IPC = 0, 0, 0
		}, "no-uop-cache: IPC error 100.00% exceeds"},
		{"speedup", func(p *samplePasses) { p.points[0].sampledDur = 10 * time.Second }, "aggregate speedup 5.0x below the 10x bound"},
	})
}

func passingSweepReuse() sweepReusePasses {
	return sweepReusePasses{
		cores: gateCores,
		jobs:  sweepJobs(10),
		cold:  digests(10), warm: digests(10),
		coldDur: 4 * time.Second, warmDur: time.Second,
		captured: 1, restored: 9, ckptBytes: 540_000,
	}
}

func TestSweepReuseGateCheck(t *testing.T) {
	check := func(p sweepReusePasses) []string { v, _ := checkSweepReuse(p); return v }
	runCheckCases(t, passingSweepReuse, check, []checkCase[sweepReusePasses]{
		{"passes", func(*sweepReusePasses) {}, ""},
		{"digest diverges", func(p *sweepReusePasses) { p.warm[3] = "other" }, "cfg3: warm digest diverges from cold digest"},
		{"extra capture", func(p *sweepReusePasses) { p.captured = 2 }, "captured 2 checkpoint(s) and restored 9 job(s), want 1 and 9"},
		{"missed restore", func(p *sweepReusePasses) { p.restored = 8 }, "captured 1 checkpoint(s) and restored 8 job(s), want 1 and 9"},
		{"speedup", func(p *sweepReusePasses) { p.warmDur = 2 * time.Second }, "speedup 2.0x below the 3x bound"},
	})
}

// passingReport returns a 10-candidate report won by candidate 2.
func passingReport(spent uint64) *autopilot.Report {
	r := &autopilot.Report{WinnerIndex: 2, Rounds: 3, TotalSpentInsts: spent}
	for i := 0; i < 10; i++ {
		c := autopilot.Candidate{Result: sim.Result{Name: fmt.Sprintf("cfg%d", i), IPC: float64(i)}, PrunedRound: 1}
		c.Job.Config.Name = c.Result.Name
		r.Candidates = append(r.Candidates, c)
	}
	r.Candidates[2].PrunedRound = 0
	return r
}

func passingAutopilot() autopilotPasses {
	adaptive := sim.Result{Name: "baseline", IPC: 4.43, Sampled: &sim.SampledStats{
		Windows: 18, WindowBudget: 31, TargetCI: 0.02, TargetMet: true, IPCMean: 4.43, IPCCI95: 0.08}}
	return autopilotPasses{
		cores:    gateCores,
		full:     sim.Result{Name: "baseline", IPC: 4.44},
		fixed:    sim.Result{Name: "baseline", Sampled: &sim.SampledStats{Windows: 31}},
		adaptive: adaptive, again: adaptive,
		search:      passingReport(65_000_000),
		exhaustive:  passingReport(149_000_000),
		searchAgain: passingReport(65_000_000),
	}
}

func TestAutopilotGateCheck(t *testing.T) {
	check := func(p autopilotPasses) []string { v, _ := checkAutopilot(p); return v }
	runCheckCases(t, passingAutopilot, check, []checkCase[autopilotPasses]{
		{"passes", func(*autopilotPasses) {}, ""},
		{"adaptive digest diverges", func(p *autopilotPasses) { p.again.Cycles++ }, "adaptive: two passes digest differently"},
		{"target unmet", func(p *autopilotPasses) { p.adaptive.Sampled.TargetMet = false }, "target ±2.0% unmet within the 31-window budget"},
		{"no fewer windows", func(p *autopilotPasses) { p.adaptive.Sampled.Windows = 31 }, "31 windows, no fewer than the fixed geometry's 31"},
		{"reference outside interval", func(p *autopilotPasses) { p.full.IPC = 4.6 }, "full-detail IPC 4.6000 outside the claimed interval 4.4300 ± 0.0800"},
		{"winner mismatch", func(p *autopilotPasses) { p.exhaustive.WinnerIndex = 5 }, "search winner cfg2 differs from exhaustive winner cfg5"},
		{"spend ratio", func(p *autopilotPasses) { p.exhaustive.TotalSpentInsts = 100_000_000 }, "spend ratio 1.54x below the 2.0x bound"},
		{"repeat winner drifts", func(p *autopilotPasses) { p.searchAgain.WinnerIndex = 0 }, "second search names a different winner"},
		{"repeat spend drifts", func(p *autopilotPasses) { p.searchAgain.Rounds = 4 }, "second search spent differently (4 rounds"},
		{"repeat digest drifts", func(p *autopilotPasses) { p.searchAgain.Candidates[2].Result.Cycles++ }, "second search's winning digest diverges"},
	})
}

func passingSweepd() sweepdPasses {
	var st sweepd.Statz
	st.Pool.Runs, st.JobsSubmitted, st.JobsCoalesced = 10, 20, 10
	st.CkptCaptured, st.CkptRestored = 1, 9
	return sweepdPasses{
		cores: gateCores,
		jobs:  sweepJobs(10),
		local: digests(10), cold: digests(10), warm: digests(10),
		st: st,
	}
}

func TestSweepdGateCheck(t *testing.T) {
	check := func(p sweepdPasses) []string { v, _ := checkSweepd(p); return v }
	runCheckCases(t, passingSweepd, check, []checkCase[sweepdPasses]{
		{"passes", func(*sweepdPasses) {}, ""},
		{"cold digest diverges", func(p *sweepdPasses) { p.cold[4] = "other" }, "cfg4: remote digest diverges from local digest"},
		{"warm digest diverges", func(p *sweepdPasses) { p.warm[7] = "other" }, "cfg7: remote digest diverges from local digest"},
		{"server reran", func(p *sweepdPasses) { p.st.Pool.Runs = 11 }, "server executed 11 jobs across both passes, want exactly 10"},
		{"warm pass not coalesced", func(p *sweepdPasses) { p.st.JobsCoalesced = 9 }, "only 9 submissions coalesced, want >= 10"},
		{"server failure", func(p *sweepdPasses) { p.st.JobsFailed = 1 }, "1 job(s) failed server-side"},
		{"extra capture", func(p *sweepdPasses) { p.st.CkptCaptured = 2 }, "captured 2 / restored 9, want 1 and 9"},
		{"missed restore", func(p *sweepdPasses) { p.st.CkptRestored = 8 }, "captured 1 / restored 8, want 1 and 9"},
	})
}

// TestParBenchRecord pins every gate's BENCH record as writeBench
// writes it: the shared envelope check.sh's schema step greps for, with
// cores taken from the passes (a real run stamps the host's GOMAXPROCS,
// as `experiments -record` does), the gate's bench description, and each
// payload's key names. The parallel records also pin how they state the
// host's core count: a note and no scaling bound on one core, a scaling
// bound and no note on more.
func TestParBenchRecord(t *testing.T) {
	record := func(v []string, rec benchRecord) benchRecord { return rec }
	singleCore := []string{`"note": "single-core host (GOMAXPROCS=1)`}
	cases := []struct {
		id, name string
		rec      benchRecord
		cores    int
		want     []string // substrings besides the envelope and keys
		absent   []string // keys the record must leave out
		keys     []string
	}{
		{"sampling", "sampling", record(checkSample(passingSample())), gateCores,
			[]string{`"bench": "sampled-simulation gate (`}, nil, []string{
				"max_ipc_err_bound", "min_speedup_bound", "points", "config", "full_ipc", "sampled_ipc",
				"ipc_err", "ipc_ci95", "windows", "full_ms", "sampled_ms", "skipped_insts",
				"functional_insts", "detailed_insts", "max_ipc_err", "full_total_ms", "sampled_total_ms", "speedup"}},
		{"tpar", "tpar single-core", record(tparGate().check(passingPasses(tparGate(), 1))), 1,
			append([]string{`"bench": "tpar gate (`}, singleCore...),
			[]string{"scaling_bound", "adaptive_target_ci", "adaptive_stop_windows"}, []string{
				"units", "warmup_insts", "measure_insts", "reference_ms", "parallel_w1_ms", "parallel_wN_ms",
				"capture_ms", "restore_ms", "speedup_vs_reference", "scaling_w1_over_wN", "note",
				"ipc_err_pct", "checkpoints_captured", "checkpoints_restored"}},
		{"tpar", "tpar multi-core", record(tparGate().check(passingPasses(tparGate(), 4))), 4,
			[]string{`"bench": "tpar gate (`, `"scaling_bound": 2.8,`}, []string{"note"}, nil},
		{"wpar", "wpar single-core", record(wparGate().check(passingPasses(wparGate(), 1))), 1,
			append([]string{`"bench": "wpar gate (`, `"checkpoints_restored": 20`}, singleCore...),
			[]string{"scaling_bound", "adaptive_target_ci", "adaptive_stop_windows"}, []string{"checkpoints_restored"}},
		{"sweepreuse", "sweepreuse", record(checkSweepReuse(passingSweepReuse())), gateCores,
			[]string{`"bench": "sweep-reuse gate (`}, nil, []string{
				"configs", "warmup_insts", "measure_insts", "min_speedup_bound", "cold_ms", "warm_ms",
				"speedup", "checkpoints_captured", "checkpoints_restored", "checkpoint_bytes", "digests_identical"}},
		{"autopilot", "autopilot", record(checkAutopilot(passingAutopilot())), gateCores,
			[]string{`"bench": "autopilot gate (`}, nil, []string{
				"adaptive", "trace", "target_ci", "full_ipc", "adaptive_ipc_mean", "adaptive_ipc_ci95",
				"achieved_rel_half", "fixed_windows", "adaptive_windows", "window_budget", "target_met",
				"autopilot", "configs", "coarse_target_ci", "final_target_ci", "winner", "rounds", "pruned",
				"search_spent_insts", "exhaustive_spent_insts", "spend_ratio", "min_spend_ratio_bound"}},
		{"sweepd", "sweepd", record(checkSweepd(passingSweepd())), gateCores,
			[]string{`"bench": "sweepd gate (`}, nil, []string{
				"configs", "protocol", "local_ms", "remote_cold_ms", "remote_warm_ms", "server_runs",
				"jobs_submitted", "jobs_coalesced", "ckpt_captured", "ckpt_restored", "digests_identical"}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.id] = true
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_"+tc.id+".json")
			if err := writeBench(path, tc.rec); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out := string(data)
			want := append([]string{`"schema_version": 1,`, fmt.Sprintf(`"cores": %d,`, tc.cores)}, tc.want...)
			for _, key := range tc.keys {
				want = append(want, `"`+key+`": `)
			}
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("record lacks %s:\n%s", w, out)
				}
			}
			for _, key := range tc.absent {
				if strings.Contains(out, `"`+key+`"`) {
					t.Errorf("record carries %q:\n%s", key, out)
				}
			}
		})
	}
	for _, g := range gates {
		if !covered[g.id] {
			t.Errorf("no record case for gate %q", g.id)
		}
	}
}

func TestRunGateUnknownID(t *testing.T) {
	err := runGate(os.Stdout, "bogus")
	if err == nil || !strings.Contains(err.Error(), "sampling tpar wpar sweepreuse autopilot sweepd") {
		t.Fatalf("runGate(bogus) = %v, want an error naming the six gate ids", err)
	}
}

func TestSpliceAutopilotResults(t *testing.T) {
	const table = "| config | IPC |\n|---|---|\n| uop-ideal | 3.88 |\n"
	dir := t.TempDir()
	read := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	write := func(path, text string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("replaces between markers", func(t *testing.T) {
		path := filepath.Join(dir, "marked.md")
		before := "# Results\n\nHand-written text.\n\n"
		after := "\n\n## Later section\n\nMore text, no trailing newline"
		write(path, before+autopilotBeginMarker+"\nstale table\n"+autopilotEndMarker+after)
		if err := spliceAutopilotResults(path, table); err != nil {
			t.Fatal(err)
		}
		got := read(path)
		if !strings.HasPrefix(got, before+autopilotBeginMarker) || !strings.HasSuffix(got, autopilotEndMarker+after) {
			t.Fatalf("text around the markers changed:\n%s", got)
		}
		if strings.Contains(got, "stale table") || !strings.Contains(got, table) {
			t.Fatalf("section not replaced:\n%s", got)
		}
		// A second splice of the same table is a fixed point.
		if err := spliceAutopilotResults(path, table); err != nil {
			t.Fatal(err)
		}
		if again := read(path); again != got {
			t.Fatalf("second splice changed the file:\n%s\nvs\n%s", again, got)
		}
	})

	t.Run("appends without markers", func(t *testing.T) {
		path := filepath.Join(dir, "unmarked.md")
		const orig = "# Results\n\nNo generated section yet."
		write(path, orig)
		if err := spliceAutopilotResults(path, table); err != nil {
			t.Fatal(err)
		}
		got := read(path)
		if !strings.HasPrefix(got, orig+"\n\n## Autopilot") {
			t.Fatalf("original text not kept ahead of the appended section:\n%s", got)
		}
		tail := got[len(orig):]
		if b, e := strings.Index(tail, autopilotBeginMarker), strings.Index(tail, autopilotEndMarker); b < 0 || e < b ||
			!strings.Contains(tail[b:e], table) || !strings.HasSuffix(got, autopilotEndMarker+"\n") {
			t.Fatalf("appended section malformed:\n%s", got)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		path := filepath.Join(dir, "absent.md")
		if err := spliceAutopilotResults(path, table); err != nil {
			t.Fatal(err)
		}
		got := read(path)
		if !strings.HasPrefix(got, "\n## Autopilot") || !strings.Contains(got, table) ||
			!strings.HasSuffix(got, autopilotEndMarker+"\n") {
			t.Fatalf("missing file not created with the section:\n%s", got)
		}
	})

	t.Run("unwritable directory", func(t *testing.T) {
		if err := spliceAutopilotResults(filepath.Join(dir, "no-such-dir", "r.md"), table); err == nil {
			t.Fatal("splice into a missing directory succeeded")
		}
	})
}
