package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want summary
	}{
		{[]float64{3}, summary{3, 3, 3}},
		{[]float64{4, 1, 3, 2}, summary{1.75, 2.5, 3.25}},
		{[]float64{5, 1, 4, 2, 3}, summary{2, 3, 4}},
	} {
		if got := summarize(tc.in); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestWins(t *testing.T) {
	base := []float64{3, 3, 3}
	head := []float64{2, 3, 4}
	if got := wins(base, head, true); got != 1 {
		t.Errorf("lower-is-better wins = %d, want 1", got)
	}
	if got := wins(base, head, false); got != 1 {
		t.Errorf("higher-is-better wins = %d, want 1", got)
	}
}

func TestParseResult(t *testing.T) {
	out := []byte("wall_s  3.6 s\n{\"correct\":true,\"metrics\":{\"wall_s\":{\"value\":3.6,\"unit\":\"s\"}}}\n")
	r, err := parseResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Metrics["wall_s"].Value != 3.6 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseResult([]byte("no json here\n")); err == nil {
		t.Fatal("a table without a result line parsed")
	}
}

func TestReport(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"command":["sh"],"run_seconds":20,"end_to_end":[{"name":"wall_s","unit":"s","better":"lower"}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	run := func(correct bool, wall float64) result {
		r, err := parseResult([]byte(fmt.Sprintf(`{"correct":%v,"metrics":{"wall_s":{"value":%v}}}`, correct, wall)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var out bytes.Buffer
	runs := [2][]result{{run(true, 4), run(true, 5)}, {run(true, 3), run(true, 6)}}
	if err := report(&out, spec, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| `wall_s` (s) | 4.5 [4.25, 4.75] | 4.5 [3.75, 5.25] | +0.0% | false | 1/2 |") {
		t.Errorf("table:\n%s", out.String())
	}

	// One incorrect run on either side refuses the whole comparison.
	for side := range runs {
		bad := runs
		bad[side] = []result{runs[side][0], run(false, 1)}
		out.Reset()
		err := report(&out, spec, bad)
		if err == nil || !strings.Contains(err.Error(), sideName[side]+" run 2 reported correct=false") {
			t.Errorf("side %s: err = %v", sideName[side], err)
		}
		if out.Len() != 0 {
			t.Errorf("side %s: printed a table from an incorrect run:\n%s", sideName[side], out.String())
		}
	}
}

func TestReadSpecRunSeconds(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		json string
		ok   bool
	}{
		{`{"command":["sh","run.sh"],"run_seconds":20}`, true},
		{`{"command":["sh","run.sh"]}`, false},
	} {
		path := filepath.Join(dir, "BENCHMARK.json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := readSpec(path)
		if (err == nil) != tc.ok || (tc.ok && s.RunSeconds != 20) {
			t.Errorf("%s: spec %+v, err %v", tc.json, s, err)
		}
	}
}
