package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 50, false, 0}, // rank 10, 9 beyond
		{20, 50, true, 10}, // rank 10, 10 beyond
		{199, 95, false, 0},
		{200, 95, true, 190},
		{10, 99, false, 0},
		{0, 50, false, 0},
	}
	for _, c := range cases {
		v, ok := tailPercentile(seq(c.n), c.p)
		if ok != c.ok || v != c.want {
			t.Errorf("tailPercentile(n=%d, p%.0f) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if p, v := highestTail(seq(200)); p != 95 || v != 190 {
		t.Errorf("highestTail(200 samples) = p%.0f %v, want p95 190", p, v)
	}
	if p, _ := highestTail(seq(12)); p != 0 {
		t.Errorf("highestTail(12 samples) = p%.0f, want none", p)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, name := range []string{"wall_s", "cpu.gc.self_pct", "trace.walk_minsts_per_s", "9lives", strings.Repeat("a", 64)} {
		if err := validMetric(metricSpec{name: name, unit: "s"}); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "bad name", "-lead", ".lead", "wall/s", "ünit", strings.Repeat("a", 65)} {
		if validMetric(metricSpec{name: name, unit: "s"}) == nil {
			t.Errorf("%q accepted", name)
		}
	}
	if validMetric(metricSpec{name: "x", unit: "seconds per thing"}) == nil {
		t.Error("unit with spaces accepted")
	}
	seen := map[string]bool{}
	for _, m := range catalog() {
		if err := validMetric(m); err != nil {
			t.Error(err)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

func TestAccuracyMath(t *testing.T) {
	// IPC 1.10 against 1.00 is 10% off; 0.95 against 1.00 is 5% off.
	got := ipcErrPct([]pairIPC{{approx: 1.10, full: 1.00}, {approx: 0.95, full: 1.00}, {approx: 3, full: 0}})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("ipcErrPct = %v, want 10", got)
	}
	// Sampled: UCP 1.05 over baseline 1.00 is +5%. Full detail: 1.02
	// over 1.00 is +2%. The paired speedup is off by 3 points, even
	// though each IPC is within 3%.
	pairs := []pairedSpeedup{
		{base: pairIPC{approx: 1.00, full: 1.00}, ucp: pairIPC{approx: 1.05, full: 1.02}},
		{base: pairIPC{approx: 2.00, full: 2.00}, ucp: pairIPC{approx: 2.00, full: 2.02}}, // 0% vs +1%
	}
	if got := speedupErrPP(pairs); math.Abs(got-3) > 1e-9 {
		t.Errorf("speedupErrPP = %v, want 3", got)
	}
	if got := speedupPct(0, 1); got != 0 {
		t.Errorf("speedupPct with no baseline = %v, want 0", got)
	}
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func TestResultLineShape(t *testing.T) {
	vals := map[string]float64{}
	for i, m := range catalog() {
		vals[m.name] = float64(i) + 0.5
	}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := writeResult(&buf, vals, traced, true, 12, 0); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		last := lines[len(lines)-1]
		var top map[string]json.RawMessage
		if err := json.Unmarshal([]byte(last), &top); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
			t.Errorf("result keys %v", keys)
		}
		var line resultLine
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k, v := range line.Metrics {
			got = append(got, k)
			if v.Unit == "" || v.Value != vals[k] {
				t.Errorf("metric %s printed as %+v", k, v)
			}
		}
		sort.Strings(got)
		want := declared(t, "end_to_end")
		if traced {
			want = declared(t, "per_layer")
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("traced=%v metrics\n got %v\nwant %v (BENCHMARK.json)", traced, got, want)
		}
		if len(lines) < len(line.Metrics)+1 {
			t.Errorf("table has %d lines for %d metrics", len(lines)-1, len(line.Metrics))
		}
	}

	delete(vals, "wall_s")
	if err := writeResult(&bytes.Buffer{}, vals, false, true, 1, 0); err == nil {
		t.Error("a passing run with a missing end-to-end metric was printed")
	}
	if err := writeResult(&bytes.Buffer{}, vals, false, false, 1, 1); err != nil {
		t.Errorf("a failed run must still print its result line: %v", err)
	}
	vals["wall_s"] = math.NaN()
	if err := writeResult(&bytes.Buffer{}, vals, false, true, 1, 0); err == nil {
		t.Error("NaN metric printed")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "job", Start: 2 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "job", Start: 4 * ms, End: 7 * ms}, // overlaps its sibling
		{ID: 4, Parent: 3, Name: "sim.measure", Start: 6 * ms, End: 9 * ms},
	}
	total, self := selfTimes(spans)
	if self["round"] != 5*ms || total["round"] != 10*ms {
		t.Errorf("round total %v self %v, want 10ms and 5ms", total["round"], self["round"])
	}
	if self["job"] != 5*ms { // 3ms + (3ms - 1ms clipped child)
		t.Errorf("job self %v, want 5ms", self["job"])
	}
}

func TestCPUProfileBuckets(t *testing.T) {
	for sym, want := range map[string]string{
		"ucp/internal/bpred.(*TAGE).Update":       "bpred",
		"ucp/internal/sweepd/client.(*Client).do": "sweepd",
		"ucp/internal/sim.(*Machine).Step":        "sim",
		"runtime.mallocgc":                        "other",
		"main.replayBTB":                          "other",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	sums, err := cpuSums(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	all := 0.0
	for k, v := range sums {
		if v < 0 {
			t.Errorf("bucket %s has negative time", k)
		}
		all += v
	}
	if all == 0 || x == 0 {
		t.Errorf("no CPU time decoded from a 300ms busy loop: %v", sums)
	}
	if _, err := cpuSums([]byte("not gzip")); err == nil {
		t.Error("garbage profile decoded")
	}
}
