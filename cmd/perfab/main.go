// Command perfab is the interleaved A/B driver for the repository
// benchmark (BENCHMARK.json). It exports a base and a head tree, then
// runs the benchmark command once per side per pair, alternating which
// side goes first, and prints each end-to-end metric's per-side median
// and quartiles, the median change, and how many pairs the head won.
//
//	perfab -workload sampled-ablation -pairs 5              # HEAD vs the working tree
//	perfab -base HEAD~1 -head HEAD -workload full-pairs -seed 7
//
// Every run lasts the benchmark's own run_seconds; the driver offers no
// other length. A side is a directory used as-is (the default head, ".", is the
// working tree, uncommitted changes included) or a git revision,
// exported with `git archive` into -dir. Each side builds into its own
// directory under -dir, so its Go build cache is reused across pairs.
// Alternating the order cancels a host that speeds up or slows down
// across a session; a claimed gain should win nearly every pair and
// move the median by more than the base's interquartile range.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the driver reads. Every run
// lasts RunSeconds, the benchmark's own run length.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// sideName labels the two sides, indexed as runs and sides are.
var sideName = [2]string{"base", "head"}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "HEAD", "base side: a directory, or a git revision to export")
	head := flag.String("head", ".", "head side: a directory, or a git revision to export")
	workload := flag.String("workload", "sampled-ablation", "benchmark workload")
	pairs := flag.Int("pairs", 5, "interleaved pairs to run")
	seed := flag.Uint64("seed", 0, "benchmark seed (0 is the golden-checked default)")
	dir := flag.String("dir", "", "work directory for exports and builds (default: a new temporary directory)")
	flag.Parse()
	if err := run(os.Stdout, *base, *head, *workload, *pairs, *seed, *dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfab: %v\n", err)
		os.Exit(1)
	}
}

func run(out io.Writer, base, head, workload string, pairs int, seed uint64, dir string) error {
	if pairs < 1 {
		return errors.New("-pairs must be at least 1")
	}
	if dir == "" {
		d, err := os.MkdirTemp("", "perfab-")
		if err != nil {
			return err
		}
		dir = d
	}
	var sides [2]string
	for i, rev := range []string{base, head} {
		d, err := checkout(rev, filepath.Join(dir, sideName[i]))
		if err != nil {
			return err
		}
		sides[i] = d
	}
	spec, err := readSpec(filepath.Join(sides[1], "BENCHMARK.json"))
	if err != nil {
		return err
	}
	args := append(spec.Command[1:len(spec.Command):len(spec.Command)], "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(spec.RunSeconds, 'g', -1, 64), "--trace", "0")
	fmt.Fprintf(out, "perfab: %s, seed %d, %d pairs\n  base %s (%s)\n  head %s (%s)\n",
		workload, seed, pairs, base, sides[0], head, sides[1])

	runs := [2][]result{}
	for p := 0; p < pairs; p++ {
		for k := 0; k < 2; k++ {
			side := (p + k) % 2 // even pairs run base first, odd pairs head first
			env := append(os.Environ(), "CARGO_TARGET_DIR="+filepath.Join(dir, sideName[side]+"-build"))
			r, err := bench(sides[side], spec.Command[0], args, env)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, sideName[side], err)
			}
			runs[side] = append(runs[side], r)
			fmt.Fprintf(out, "  pair %d %-4s correct=%v %s\n", p+1, sideName[side], r.Correct, brief(r))
		}
	}

	return report(out, spec, runs)
}

// report prints each end-to-end metric's comparison table. It refuses,
// printing nothing, when any run on either side reported
// correct=false: a timing of wrong output is not a result.
func report(out io.Writer, spec benchSpec, runs [2][]result) error {
	for side, rs := range runs {
		for i, r := range rs {
			if !r.Correct {
				return fmt.Errorf("%s run %d reported correct=false; no comparison", sideName[side], i+1)
			}
		}
	}
	pairs := len(runs[0])
	fmt.Fprintf(out, "\n| metric | base median [q1, q3] | head median [q1, q3] | change | beyond base IQR | head better |\n|---|---|---|---|---|---|\n")
	for _, m := range spec.EndToEnd {
		b, h := values(runs[0], m.Name), values(runs[1], m.Name)
		if len(b) != pairs || len(h) != pairs {
			continue
		}
		bs, hs := summarize(b), summarize(h)
		fmt.Fprintf(out, "| `%s` (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %v | %d/%d |\n",
			m.Name, m.Unit, bs.median, bs.q1, bs.q3, hs.median, hs.q1, hs.q3,
			100*(hs.median-bs.median)/bs.median, math.Abs(hs.median-bs.median) > bs.q3-bs.q1,
			wins(b, h, m.Better == "lower"), pairs)
	}
	return nil
}

// checkout returns rev's tree: rev itself when it is a directory,
// otherwise a `git archive` export of the revision into dst.
func checkout(rev, dst string) (string, error) {
	if st, err := os.Stat(rev); err == nil && st.IsDir() {
		return filepath.Abs(rev)
	}
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	archive.Stderr = os.Stderr
	tar, err := archive.Output()
	if err != nil {
		return "", fmt.Errorf("git archive %s: %w", rev, err)
	}
	untar := exec.Command("tar", "-x", "-C", dst)
	untar.Stdin = bytes.NewReader(tar)
	untar.Stderr = os.Stderr
	if err := untar.Run(); err != nil {
		return "", fmt.Errorf("extracting %s: %w", rev, err)
	}
	return dst, nil
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Command) == 0 {
		return s, fmt.Errorf("%s: no command", path)
	}
	if s.RunSeconds <= 0 {
		return s, fmt.Errorf("%s: no run_seconds", path)
	}
	return s, nil
}

// bench runs the benchmark in dir and decodes its last output line.
func bench(dir, name string, args, env []string) (result, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = env
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	return parseResult(stdout)
}

// parseResult decodes the JSON result line that ends the benchmark's
// output (the metric table precedes it).
func parseResult(stdout []byte) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("benchmark result line: %w", err)
	}
	return r, nil
}

func brief(r result) string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.4g", n, r.Metrics[n].Value)
	}
	return b.String()
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

type summary struct{ q1, median, q3 float64 }

// summarize returns the quartiles of v, linearly interpolated between
// order statistics.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return summary{q(0.25), q(0.5), q(0.75)}
}

// wins counts the pairs in which head beat base.
func wins(base, head []float64, lowerBetter bool) int {
	n := 0
	for i := range base {
		if (lowerBetter && head[i] < base[i]) || (!lowerBetter && head[i] > base[i]) {
			n++
		}
	}
	return n
}
