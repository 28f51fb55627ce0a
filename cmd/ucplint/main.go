// Command ucplint runs the repository's custom static-analysis pass
// (see internal/lint): determinism and hardware-model invariants that
// go vet cannot express. It is part of the tier-1+ gate (check.sh).
//
// Usage:
//
//	ucplint ./...            lint every package of the module (default)
//	ucplint <dir> [<dir>…]   lint standalone fixture directories
//	ucplint -json ./...      emit findings as a JSON array on stdout
//	ucplint -rules           list the rules
//
// Exit status (stable, consumed by check.sh):
//
//	0  clean — no findings
//	1  findings
//	2  operational error (unparseable source, missing directory, …)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ucp/internal/buildinfo"
	"ucp/internal/lint"
)

func main() {
	var (
		rulesOnly = flag.Bool("rules", false, "print the rule names and docs, then exit")
		jsonOut   = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		version   = flag.Bool("version", false, "print model/schema/protocol versions and exit")
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
