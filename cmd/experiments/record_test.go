package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recordJSON marshals rec the way writeBench does.
func recordJSON(t *testing.T, rec benchRecord) string {
	t.Helper()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunqRecord pins BENCH_runq.json's fields and the precision of
// its two ratios, and the single-core note.
func TestRunqRecord(t *testing.T) {
	rec, err := buildRunqRecord([]string{"22518", "13404", "457"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := recordJSON(t, rec)
	for _, want := range []string{
		`"schema_version": 1`, `"bench": "runq quick sweep (-all -quick, 60k+60k insts)"`, `"cores": 2`,
		`"serial_ms": 22518`, `"parallel8_ms": 13404`, `"warm_cache_ms": 457`,
		`"parallel_speedup": 1.68`, `"warm_fraction_of_cold": 0.02`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("record lacks %s:\n%s", want, got)
		}
	}
	if strings.Contains(got, `"note"`) {
		t.Errorf("2-core record carries a note:\n%s", got)
	}
	rec, err = buildRunqRecord([]string{"1000", "0", "0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got = recordJSON(t, rec)
	for _, want := range []string{`"parallel_speedup": 0`, `"note": "single-core host (GOMAXPROCS=1): parallel_speedup is time-slicing, no speedup expected"`} {
		if !strings.Contains(got, want) {
			t.Errorf("single-core record lacks %s:\n%s", want, got)
		}
	}
	for _, args := range [][]string{{"1", "2"}, {"1", "2", "x"}, {"1", "-2", "3"}} {
		if _, err := buildRunqRecord(args, 2); err == nil {
			t.Errorf("args %q accepted", args)
		}
	}
}

// TestHotpathRecord reads BenchmarkSimQuick's units from go test -bench
// output and pins BENCH_hotpath.json's fields and precision.
func TestHotpathRecord(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.txt", "goos: linux\nBenchmarkSimQuickOther-2 1 5 ns/op 7 insts/s\n"+
		"BenchmarkSimQuick-2   \t       1\t3739466855 ns/op\t    962506.4 insts/s\t         0.023064 allocs/inst\nPASS\n")
	rec, err := buildHotpathRecord([]string{good, "22518"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := recordJSON(t, rec)
	for _, want := range []string{
		`"schema_version": 1`, `"bench": "BenchmarkSimQuick (quick set, baseline+UCP, 30k+30k insts each)"`, `"cores": 2`,
		`"simulated_insts_per_sec": 962506,`, `"allocs_per_inst": 0.02306,`, `"sweep_serial_ms": 22518`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("record lacks %s:\n%s", want, got)
		}
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no result line", []string{write("none.txt", "BenchmarkSimQuickOther 1 5 ns/op\n"), "0"}, "no BenchmarkSimQuick result line"},
		{"missing unit", []string{write("unit.txt", "BenchmarkSimQuick 1 5 ns/op 9 insts/s\n"), "0"}, "reports no allocs/inst"},
		{"missing file", []string{filepath.Join(dir, "absent.txt"), "0"}, "absent.txt"},
		{"bad sweep time", []string{good, "soon"}, "not a millisecond count"},
		{"too few", []string{good}, "want 2"},
	} {
		if _, err := buildHotpathRecord(tc.args, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRunRecordUnknownID(t *testing.T) {
	if err := runRecord("bogus", nil); err == nil || !strings.Contains(err.Error(), "runq hotpath") {
		t.Fatalf("runRecord(bogus) = %v, want an error naming both record ids", err)
	}
}
