package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digestGoldens lists, per golden file, the ucpsim argument lists whose
// -digest outputs, concatenated in order, make up the file. They are
// also how to regenerate it, for an intended model change only: run
// each list in order with the built binary and redirect the combined
// output to the file. jobs, when set, names the -jobs values one file
// must be reproduced at; each is appended to every argument list.
var digestGoldens = []struct {
	row, file string
	runs      [][]string
	jobs      []string
}{
	{
		// The quick sweep at 60K+60K: the hot path's outcome-neutrality
		// bar.
		row:  "hotpath",
		file: "hotpath_digest.golden",
		runs: [][]string{
			{"-trace", "quick", "-digest", "-warmup", "60000", "-measure", "60000"},
			{"-trace", "quick", "-ucp", "-digest", "-warmup", "60000", "-measure", "60000"},
		},
	},
	{
		// The serial sampled chain on every zone kind of the warming
		// pyramid (-sample-fast engages the pure, predictor-only and
		// cache-warm zones), then the adaptive stop rule.
		row:  "sampled",
		file: "sampled_digest.golden",
		runs: withAndWithoutUCP(
			[]string{"-trace", "crypto01", "-digest", "-warmup", "200000", "-measure", "1666000", "-sample", "-sample-fast"},
			[]string{"-trace", "srv203", "-digest", "-warmup", "400000", "-measure", "1500000", "-sample"},
			[]string{"-trace", "crypto01", "-digest", "-warmup", "50000", "-measure", "2400000", "-sample",
				"-sample-period", "100000", "-sample-window", "2000", "-adaptive", "0.05"},
		),
	},
	{
		// Time-parallel segments, then window-parallel sampled windows,
		// through the interval executor at one and at eight pool
		// workers: the file must not depend on the worker count.
		row:  "parallel",
		file: "parallel_digest.golden",
		runs: [][]string{
			{"-trace", "srv203", "-ucp", "-digest", "-warmup", "60000", "-measure", "60000", "-segments", "4"},
			{"-trace", "srv203", "-ucp", "-digest", "-warmup", "60000", "-measure", "200000",
				"-sample", "-sample-period", "50000", "-sample-window", "2000", "-segments", "4"},
		},
		jobs: []string{"1", "8"},
	},
}

// withAndWithoutUCP returns each argument list (which starts with
// -trace and its name) as given, then with -ucp after the trace name.
func withAndWithoutUCP(lists ...[]string) [][]string {
	var out [][]string
	for _, l := range lists {
		out = append(out, l, append(append(l[:2:2], "-ucp"), l[2:]...))
	}
	return out
}

// TestDigestGoldens runs ucpsim's digest commands in-process and
// compares their combined output with the committed golden files, so a
// change to any simulated outcome fails the test suite.
func TestDigestGoldens(t *testing.T) {
	for _, g := range digestGoldens {
		t.Run(g.row, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if g.jobs == nil {
				checkGolden(t, g.file, g.runs, want)
				return
			}
			for _, j := range g.jobs {
				t.Run("jobs="+j, func(t *testing.T) {
					runs := make([][]string, len(g.runs))
					for i, args := range g.runs {
						runs[i] = append(append([]string(nil), args...), "-jobs", j)
					}
					checkGolden(t, g.file, runs, want)
				})
			}
		})
	}
}

// checkGolden runs each argument list through run and compares the
// concatenated stdout with want, reporting the first differing line.
func checkGolden(t *testing.T, file string, runs [][]string, want []byte) {
	t.Helper()
	var got bytes.Buffer
	for _, args := range runs {
		var stderr bytes.Buffer
		if code := run(args, &got, &stderr); code != 0 {
			t.Fatalf("ucpsim %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	at := func(ls []string) string {
		if line < len(ls) {
			return ls[line]
		}
		return "(end of output)"
	}
	var cmds strings.Builder
	for _, args := range runs {
		fmt.Fprintf(&cmds, "\n  ucpsim %s", strings.Join(args, " "))
	}
	t.Fatalf("digest differs from testdata/%s at line %d:\n got: %s\nwant: %s\n"+
		"A simulated outcome changed. If the model change is intended, regenerate the file from:%s",
		file, line+1, at(gl), at(wl), cmds.String())
}
