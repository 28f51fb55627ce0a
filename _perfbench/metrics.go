package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricSpec names one reported metric. endToEnd metrics are printed by
// untraced runs, the rest by traced runs (BENCHMARK.json lists the same
// two sets as end_to_end and per_layer).
type metricSpec struct {
	name     string
	unit     string
	endToEnd bool
}

// metricName is the shape BENCHMARK.json accepts for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the shape BENCHMARK.json accepts for a unit.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func validMetric(m metricSpec) error {
	if !metricName.MatchString(m.name) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ (at most 64, leading letter or digit)", m.name)
	}
	if !metricUnit.MatchString(m.unit) {
		return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", m.name, m.unit)
	}
	return nil
}

// cpuBuckets are the packages the traced run's CPU profile is bucketed
// into (cpu.<bucket>.self_pct); everything else lands in "other".
var cpuBuckets = []string{
	"bpred", "btb", "ittage", "uopcache", "frontend", "backend", "core", "cache",
	"prefetch", "trace", "ckpt", "sim", "runq", "sweepd", "gc", "other",
}

// catalog is every metric the benchmark reports, in print order.
func catalog() []metricSpec {
	ms := []metricSpec{
		{"wall_s", "s", true},
		{"sim_minsts_per_s", "Minst/s", true},
		{"setup_s", "s", true},
		{"peak_rss_mb", "MB", true},

		{"jobs_failed_frac", "ratio", false},
		{"ipc_err_pct", "%", false},
		{"ucp_speedup_err_pp", "pp", false},
		{"trace_overhead_s", "s", false},

		{"trace.build_program_ms", "ms", false},
		{"trace.walk_minsts_per_s", "Minst/s", false},
		{"trace.arena_build_s", "s", false},
		{"trace.arena_bytes_per_inst", "B/inst", false},
		{"trace.skip_minsts_per_s", "Minst/s", false},

		{"sim.new_machine_ms", "ms", false},
		{"sim.step_ns_per_cycle", "ns/cycle", false},
		{"sim.warm_stage_s", "s", false},
		{"sim.measure_stage_s", "s", false},
		{"sim.window_ms_p50", "ms", false},
		{"sim.skipped_minsts", "Minst", false},
		{"sim.ff_minsts", "Minst", false},
		{"sim.detailed_minsts", "Minst", false},

		{"bpred.predict_update_ns", "ns", false},
		{"ittage.predict_update_ns", "ns", false},
		{"btb.lookup_ns", "ns", false},
		{"uopcache.lookup_ns", "ns", false},
		{"uopcache.insert_ns", "ns", false},
		{"cache.fetch_inst_ns", "ns", false},
		{"cache.load_ns", "ns", false},

		{"uopcache.hit_rate", "ratio", false},
		{"bpred.cond_mpki", "MPKI", false},
		{"ucp.prefetch_accuracy", "ratio", false},
		{"frontend.switch_pki", "PKI", false},
		{"l1i.mpki", "MPKI", false},

		{"ckpt.captures", "count", false},
		{"ckpt.restores", "count", false},
		{"ckpt.hit_ratio", "ratio", false},
		{"ckpt.capture_s", "s", false},
		{"ckpt.restore_s", "s", false},
		{"ckpt.blob_kb", "KiB", false},

		{"runq.runs", "count", false},
		{"runq.memo_hits", "count", false},
		{"runq.retries", "count", false},
		{"runq.failures", "count", false},
		{"runq.queue_wait_ms_p50", "ms", false},

		{"tpar.speedup_vs_serial", "x", false},
		{"tpar.segment_skew", "x", false},
		{"wpar.speedup_vs_chain", "x", false},
		{"wpar.window_warm_s", "s", false},
		{"wpar.window_measure_s", "s", false},

		{"sweepd.submit_ms_p50", "ms", false},
		{"sweepd.resubmit_ms_p50", "ms", false},
		{"sweepd.coalesced", "count", false},
		{"sweepd.events_per_job", "count", false},
	}
	for _, b := range cpuBuckets {
		ms = append(ms, metricSpec{"cpu." + b + ".self_pct", "%", false})
	}
	return ms
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the p-th percentile (0 < p < 100, nearest
// rank) of xs, but only when at least ten samples lie strictly beyond
// that rank: a tail figure resting on fewer samples is noise.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if n-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// highestTail returns the highest of the usual tail percentiles that
// tailPercentile allows for len(xs) samples (0 when none does).
func highestTail(xs []float64) (p, v float64) {
	for _, q := range []float64{99, 95, 90, 75} {
		if v, ok := tailPercentile(xs, q); ok {
			return q, v
		}
	}
	return 0, 0
}

// pairIPC is one configuration's IPC in an approximate mode next to
// the full-detail reference for the same config, trace and budget.
type pairIPC struct {
	approx, full float64
}

// ipcErrPct is the largest |approx − full| / full over ps, in percent.
func ipcErrPct(ps []pairIPC) float64 {
	worst := 0.0
	for _, p := range ps {
		if p.full > 0 {
			worst = math.Max(worst, math.Abs(p.approx-p.full)/p.full*100)
		}
	}
	return worst
}

// speedupPct is UCP's paired speedup over the baseline, in percent.
func speedupPct(base, ucp float64) float64 {
	if base <= 0 {
		return 0
	}
	return (ucp/base - 1) * 100
}

// pairedSpeedup holds a baseline/UCP IPC pair in an approximate mode
// and the same pair at full detail.
type pairedSpeedup struct {
	base, ucp pairIPC
}

// speedupErrPP is the largest |approximate paired speedup − full-detail
// paired speedup| over ps, in percentage points.
func speedupErrPP(ps []pairedSpeedup) float64 {
	worst := 0.0
	for _, p := range ps {
		d := speedupPct(p.base.approx, p.ucp.approx) - speedupPct(p.base.full, p.ucp.full)
		worst = math.Max(worst, math.Abs(d))
	}
	return worst
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the human-readable table for every metric in
// values, then the result line holding exactly the metrics of the
// requested set (end-to-end for untraced runs, per-layer for traced
// ones). A metric of the set with no value is an error unless the run
// already failed its output check: a passing result line always
// carries the full set.
func writeResult(w io.Writer, values map[string]float64, traced, correct bool, attempted, failed int) error {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range catalog() {
		v, ok := values[m.name]
		if ok {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, v, m.unit)
		}
		if m.endToEnd == traced {
			continue
		}
		if !ok && !correct {
			continue
		}
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
