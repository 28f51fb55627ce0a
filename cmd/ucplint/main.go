// Command ucplint runs the repository's custom static-analysis pass
// (see internal/lint): determinism and hardware-model invariants that
// go vet cannot express. It is part of the tier-1+ gate (check.sh).
//
// Usage:
//
//	ucplint ./...            lint every package of the module (default)
//	ucplint <dir> [<dir>…]   lint standalone fixture directories
//	ucplint -json ./...      emit findings as a JSON array on stdout
//	ucplint -determinism     run the runtime determinism harness: the
//	                         same seeded simulation twice, failing on
//	                         any byte difference in the stats digest
//
// Exit status (stable, consumed by check.sh):
//
//	0  clean — no findings (or determinism OK)
//	1  findings (or determinism divergence)
//	2  operational error (unparseable source, unknown trace, …)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ucp/internal/buildinfo"
	"ucp/internal/core"
	"ucp/internal/lint"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

func main() {
	var (
		determinism = flag.Bool("determinism", false, "run the two-pass runtime determinism harness instead of linting")
		detTrace    = flag.String("determinism-trace", "srv203", "profile for the determinism harness")
		detInsts    = flag.Uint64("determinism-insts", 120_000, "total instructions (warmup+measure) per determinism run")
		rulesOnly   = flag.Bool("rules", false, "print the rule names and docs, then exit")
		jsonOut     = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		version     = flag.Bool("version", false, "print model/schema/protocol versions and exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Fprint(os.Stdout, "ucplint")
		return
	}
	if *rulesOnly {
		for _, a := range lint.NewAnalyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *determinism {
		os.Exit(runDeterminism(*detTrace, *detInsts))
	}
	os.Exit(runLint(flag.Args(), *jsonOut))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ucplint: "+format+"\n", args...)
	os.Exit(2)
}

// jsonFinding is the stable machine-readable shape of one finding.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func runLint(args []string, jsonOut bool) int {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fatalf("%v", err)
	}
	var pkgs []*lint.Package
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			ps, err := loader.LoadModule()
			if err != nil {
				fatalf("loading module: %v", err)
			}
			pkgs = append(pkgs, ps...)
		default:
			p, err := loader.LoadFixture(arg)
			if err != nil {
				fatalf("loading %s: %v", arg, err)
			}
			pkgs = append(pkgs, p)
		}
	}
	findings := lint.Run(pkgs, lint.NewAnalyzers())
	cwd, _ := os.Getwd()
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		pos := f.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = filepath.ToSlash(rel)
			}
		}
		out = append(out, jsonFinding{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Rule: f.Rule, Msg: f.Msg,
		})
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("encoding findings: %v", err)
		}
	} else {
		for _, f := range out {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Rule, f.Msg)
		}
		if len(out) > 0 {
			fmt.Printf("ucplint: %d finding(s)\n", len(out))
		}
	}
	if len(out) > 0 {
		return 1
	}
	return 0
}

// runDeterminism executes the same seeded UCP simulation twice, each
// time regenerating the synthetic program from the profile seed, and
// byte-compares the full stats digests. Any wall-clock, global-rand, or
// map-order dependence anywhere in the pipeline shows up as a diff.
func runDeterminism(traceName string, insts uint64) int {
	prof, ok := trace.ProfileByName(traceName)
	if !ok {
		fatalf("unknown profile %q", traceName)
	}
	digest := func() string {
		prog, err := trace.BuildProgram(prof)
		if err != nil {
			fatalf("building %s: %v", prof.Name, err)
		}
		cfg := sim.WithUCP(core.DefaultConfig())
		cfg.WarmupInsts = insts / 2
		cfg.MeasureInsts = insts - insts/2
		src := trace.NewLimit(trace.NewWalker(prog), int(insts)+200_000)
		res, err := sim.Run(cfg, src, prog, prof.Name)
		if err != nil {
			fatalf("run failed: %v", err)
		}
		return res.DeterminismDigest()
	}
	a, b := digest(), digest()
	if a == b {
		fmt.Printf("determinism: OK — two %d-instruction runs of %s produced byte-identical digests (%d bytes)\n",
			insts, prof.Name, len(a))
		return 0
	}
	fmt.Printf("determinism: FAIL — digests differ between two identical runs of %s\n", prof.Name)
	printFirstDiff(a, b)
	return 1
}

func printFirstDiff(a, b string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			fmt.Printf("first diff at line %d:\n  run1: %s\n  run2: %s\n", i+1, al[i], bl[i])
			return
		}
	}
	fmt.Printf("digests differ in length: %d vs %d lines\n", len(al), len(bl))
}
