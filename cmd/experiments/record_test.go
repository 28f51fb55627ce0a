package main

import (
	"encoding/json"
	"fmt"
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

// TestHotpathRecord reads five BenchmarkSimQuick samples from go test
// -bench -benchmem output and pins BENCH_hotpath.json's fields: the
// quartiles of insts/s, allocs/inst and bytes per instruction (B/op
// over insts/op), and their precision.
func TestHotpathRecord(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	line := func(ips, apis float64, bop int) string {
		return fmt.Sprintf("BenchmarkSimQuick-2   \t       1\t3739466855 ns/op\t%12.1f insts/s\t%12.6f allocs/inst\t"+
			"    360000 insts/op\t%9d B/op\t   8302 allocs/op\n", ips, apis, bop)
	}
	// Five samples, out of order, with one slow outlier: the median
	// and quartiles ignore it where a single sample would not.
	body := "goos: linux\nBenchmarkSimQuickOther-2 1 5 ns/op 7 insts/s\n" +
		line(962506.4, 0.023064, 7_200_000) + line(1_010_000, 0.023064, 7_200_360) +
		line(640_000, 0.023100, 7_300_000) + line(990_000, 0.023064, 7_200_000) +
		line(1_000_000, 0.023070, 7_236_000) + "PASS\n"
	good := write("good.txt", body)
	rec, err := buildHotpathRecord([]string{good, "22518"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := recordJSON(t, rec)
	for _, want := range []string{
		`"schema_version": 1`, `"bench": "BenchmarkSimQuick (quick set, baseline+UCP, 30k+30k insts each)"`, `"cores": 2`,
		`"samples": 5,`,
		`"simulated_insts_per_sec": {
    "q1": 962506,
    "median": 990000,
    "q3": 1000000
  },`,
		`"allocs_per_inst": {
    "q1": 0.02306,
    "median": 0.02306,
    "q3": 0.02307
  },`,
		`"bytes_per_inst": {
    "q1": 20,
    "median": 20,
    "q3": 20.1
  },`,
		`"sweep_serial_ms": 22518`,
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
		{"no result line", []string{write("none.txt", "BenchmarkSimQuickOther 1 5 ns/op\n"), "0"}, "got 0 BenchmarkSimQuick result lines, want at least 5"},
		{"one sample", []string{write("one.txt", line(9, 1, 10)), "0"}, "got 1 BenchmarkSimQuick result lines, want at least 5"},
		{"missing unit", []string{write("unit.txt", "BenchmarkSimQuick 1 5 ns/op 9 insts/s\n"), "0"}, "reports no allocs/inst"},
		{"no -benchmem", []string{write("mem.txt", "BenchmarkSimQuick 1 5 ns/op 9 insts/s 0.1 allocs/inst 7 insts/op\n"), "0"}, "reports no B/op"},
		{"missing file", []string{filepath.Join(dir, "absent.txt"), "0"}, "absent.txt"},
		{"bad sweep time", []string{good, "soon"}, "not a millisecond count"},
		{"too few", []string{good}, "want 2"},
	} {
		if _, err := buildHotpathRecord(tc.args, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestHotpathRecordBuildProgram reads BenchmarkBuildProgram samples
// beside BenchmarkSimQuick's and pins build_program_ms, the quartiles
// of their ns/op in milliseconds; a record without them omits the key.
func TestHotpathRecordBuildProgram(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var quick, build string
	for i := 0; i < 5; i++ {
		quick += "BenchmarkSimQuick-2 1 3739466855 ns/op 1000000 insts/s 0.002 allocs/inst 360000 insts/op 5000000 B/op 700 allocs/op\n"
	}
	for _, ns := range []int{14100000, 13200000, 19900000, 13500000, 13900000} {
		build += fmt.Sprintf("BenchmarkBuildProgram-2 \t 10 \t %d ns/op \t 10054542 B/op \t 36 allocs/op\n", ns)
	}
	rec, err := buildHotpathRecord([]string{write("both.txt", quick+build), "0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := `"build_program_ms": {
    "q1": 13.5,
    "median": 13.9,
    "q3": 14.1
  },`
	if got := recordJSON(t, rec); !strings.Contains(got, want) {
		t.Errorf("record lacks %s:\n%s", want, got)
	}
	rec, err = buildHotpathRecord([]string{write("quick.txt", quick), "0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordJSON(t, rec); strings.Contains(got, "build_program_ms") {
		t.Errorf("record without BenchmarkBuildProgram lines has build_program_ms:\n%s", got)
	}
	short := quick + strings.Join(strings.SplitAfter(build, "\n")[:2], "")
	if _, err := buildHotpathRecord([]string{write("short.txt", short), "0"}, 2); err == nil ||
		!strings.Contains(err.Error(), "got 2 BenchmarkBuildProgram result lines, want at least 5") {
		t.Errorf("two BenchmarkBuildProgram samples: err %v", err)
	}
}

// TestHotpathRecordNewMachine reads BenchmarkNewMachine samples beside
// BenchmarkSimQuick's and pins new_machine_kb, the quartiles of their
// B/op in KiB; samples without B/op are an error.
func TestHotpathRecordNewMachine(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var quick, machine string
	for i := 0; i < 5; i++ {
		quick += "BenchmarkSimQuick-2 1 3739466855 ns/op 1000000 insts/s 0.002 allocs/inst 360000 insts/op 5000000 B/op 700 allocs/op\n"
	}
	for _, bytes := range []int{3387136, 3387136, 3387142, 3387142, 3387142} {
		machine += fmt.Sprintf("BenchmarkNewMachine-2   \t      10\t   1104783 ns/op\t %d B/op\t      92 allocs/op\n", bytes)
	}
	rec, err := buildHotpathRecord([]string{write("machine.txt", quick+machine), "0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := `"new_machine_kb": {
    "q1": 3307.75,
    "median": 3307.76,
    "q3": 3307.76
  },`
	if got := recordJSON(t, rec); !strings.Contains(got, want) {
		t.Errorf("record lacks %s:\n%s", want, got)
	}
	noMem := strings.ReplaceAll(machine, " B/op", " B/opx")
	if _, err := buildHotpathRecord([]string{write("nomem.txt", quick+noMem), "0"}, 2); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkNewMachine reports no B/op") {
		t.Errorf("BenchmarkNewMachine without -benchmem: err %v", err)
	}
}

// TestHotpathRecordKernels reads BenchmarkPredictorReplay and
// BenchmarkWarmSkip/srv203/ucp samples beside BenchmarkSimQuick's and
// pins bpred_ns_per_branch and warm_skip_ns_per_inst, the quartiles of
// their ns/branch and ns/inst; the other WarmSkip sub-benchmarks are
// not counted, a record without the lines omits both keys, and lines
// without the unit are an error.
func TestHotpathRecordKernels(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var quick, replay, warm string
	for i := 0; i < 5; i++ {
		quick += "BenchmarkSimQuick-2 1 3739466855 ns/op 1000000 insts/s 0.002 allocs/inst 360000 insts/op 5000000 B/op 700 allocs/op\n"
	}
	for _, ns := range []float64{241.5, 236.2, 300.4, 238.9, 244.0} {
		replay += fmt.Sprintf("BenchmarkPredictorReplay-2   \t       3\t  %d ns/op\t       %.1f ns/branch\n", int(ns*1e5), ns)
	}
	for _, ns := range []float64{80.1, 77.7, 79.3, 120.6, 78.2} {
		warm += fmt.Sprintf("BenchmarkWarmSkip/srv203/ucp-2         \t      10\t  %d ns/op\t        %.2f ns/inst\n", int(ns*2e5), ns)
		warm += "BenchmarkWarmSkip/crypto01/ucp-2         \t      10\t  9000000 ns/op\t        45.00 ns/inst\n"
	}
	rec, err := buildHotpathRecord([]string{write("kernels.txt", quick+replay+warm), "0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := recordJSON(t, rec)
	for _, want := range []string{`"bpred_ns_per_branch": {
    "q1": 238.9,
    "median": 241.5,
    "q3": 244
  },`, `"warm_skip_ns_per_inst": {
    "q1": 78.2,
    "median": 79.3,
    "q3": 80.1
  },`} {
		if !strings.Contains(got, want) {
			t.Errorf("record lacks %s:\n%s", want, got)
		}
	}
	rec, err = buildHotpathRecord([]string{write("quick.txt", quick), "0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := recordJSON(t, rec); strings.Contains(got, "bpred_ns_per_branch") || strings.Contains(got, "warm_skip_ns_per_inst") {
		t.Errorf("record without kernel benchmark lines has their keys:\n%s", got)
	}
	for _, tc := range []struct{ body, want string }{
		{strings.ReplaceAll(replay, "ns/branch", "ns/br"), "BenchmarkPredictorReplay reports no ns/branch"},
		{strings.ReplaceAll(warm, "ns/inst", "ns/ins"), "BenchmarkWarmSkip/srv203/ucp reports no ns/inst"},
	} {
		if _, err := buildHotpathRecord([]string{write("nounit.txt", quick+tc.body), "0"}, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err %v, want %q", err, tc.want)
		}
	}
}

func TestRunRecordUnknownID(t *testing.T) {
	if err := runRecord("bogus", nil); err == nil || !strings.Contains(err.Error(), "runq hotpath") {
		t.Fatalf("runRecord(bogus) = %v, want an error naming both record ids", err)
	}
}
