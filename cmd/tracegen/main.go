// Command tracegen generates synthetic workload traces (the CVP-1
// substitutes) and writes them in the repository's binary trace format,
// or validates/inspects existing trace files.
//
// Examples:
//
//	tracegen -profile srv203 -n 2000000 -o srv203.ucpt
//	tracegen -all -n 500000 -dir traces/
//	tracegen -inspect srv203.ucpt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ucp/internal/buildinfo"
	"ucp/internal/isa"
	"ucp/internal/trace"
)

func main() {
	var (
		profile = flag.String("profile", "", "profile to generate")
		all     = flag.Bool("all", false, "generate every default profile")
		n       = flag.Int("n", 1_000_000, "instructions per trace")
		out     = flag.String("o", "", "output file (default <profile>.ucpt)")
		dir     = flag.String("dir", ".", "output directory for -all")
		inspect = flag.String("inspect", "", "validate and summarize a trace file")
		version = flag.Bool("version", false, "print model/schema/protocol versions and exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Fprint(os.Stdout, "tracegen")
		return
	}
	if *inspect != "" {
		inspectFile(*inspect)
		return
	}
	if *all {
		for _, p := range trace.DefaultProfiles() {
			write(p, *n, filepath.Join(*dir, p.Name+".ucpt"))
		}
		return
	}
	if *profile == "" {
		fmt.Fprintln(os.Stderr, "need -profile, -all, or -inspect")
		os.Exit(1)
	}
	p, ok := trace.ProfileByName(*profile)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = p.Name + ".ucpt"
	}
	write(p, *n, path)
}

func write(p trace.Profile, n int, path string) {
	prog, err := trace.BuildProgram(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	insts := trace.Collect(trace.NewWalker(prog), n)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := trace.WriteCompact(f, insts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d instructions, %.1fKB static code\n",
		path, len(insts), float64(prog.StaticInsts())*isa.InstBytes/1024)
}

func inspectFile(path string) {
	a, err := trace.LoadArena(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	insts := trace.Collect(a.Cursor(), a.Len())
	if err := trace.Validate(insts); err != nil {
		fmt.Fprintf(os.Stderr, "INVALID: %v\n", err)
		os.Exit(1)
	}
	var classes [isa.NumClasses]int
	lines := map[uint64]bool{}
	for i := range insts {
		classes[insts[i].Class]++
		lines[insts[i].LineAddr()] = true
	}
	fmt.Printf("%s: %d instructions, valid control flow\n", path, len(insts))
	fmt.Printf("touched code: %.1fKB (%d lines)\n", float64(len(lines))*64/1024, len(lines))
	for c := 0; c < isa.NumClasses; c++ {
		if classes[c] > 0 {
			fmt.Printf("  %-13s %8d (%5.2f%%)\n", isa.Class(c), classes[c],
				100*float64(classes[c])/float64(len(insts)))
		}
	}
}
