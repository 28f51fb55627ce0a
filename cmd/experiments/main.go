// Command experiments regenerates the paper's evaluation: every figure
// and table has a named experiment that sweeps the relevant machine
// configurations over the synthetic trace set and prints the same
// rows/series the paper reports.
//
// Runs execute on an internal/runq worker pool (-jobs) and can be
// memoized across invocations through a content-addressed on-disk cache
// (-cache-dir). Reports are byte-identical at every worker count.
//
// Examples:
//
//	experiments -fig 11                 # one figure
//	experiments -all -o results.md      # the whole evaluation
//	experiments -all -jobs 8 -cache-dir ~/.cache/ucp
//	experiments -fig 15 -quick          # reduced trace set
//	experiments -fig artifact -warmup 1000000 -measure 1000000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ucp/internal/buildinfo"
	"ucp/internal/harness"
	"ucp/internal/sim"
	"ucp/internal/sweepd/client"
	"ucp/internal/trace"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 2,3,4,5,6,7,9,10,11,12,13,14,15,16,artifact (6 and 7 run together)")
		all      = flag.Bool("all", false, "run the complete evaluation")
		quick    = flag.Bool("quick", false, "use the reduced 4-trace set")
		warmup   = flag.Uint64("warmup", 800_000, "warmup instructions per run")
		measure  = flag.Uint64("measure", 700_000, "measured instructions per run")
		out      = flag.String("o", "", "write the report to a file (default stdout)")
		verbose  = flag.Bool("v", false, "log every completed run")
		jobs     = flag.Int("jobs", 0, "concurrent simulations (default GOMAXPROCS); the report is byte-identical at any value")
		cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory (empty: no on-disk cache)")
		progress = flag.Bool("progress", true, "print scheduler progress/ETA lines to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
		recordID = flag.String("record", "", "write BENCH_<id>.json from check.sh readings given as arguments (runq <serial_ms> <parallel8_ms> <warm_cache_ms>, hotpath <bench output file> <sweep_serial_ms>) and exit")
		sample   = flag.Bool("sample", false, "run sweeps in sampled mode (conservative geometry; see EXPERIMENTS.md)")
		adaptive = flag.Float64("adaptive", 0, "with -sample: adaptive stop — end each run once the relative 95% CI half-width of its window IPC mean drops below this")
		pilot    = flag.Bool("autopilot", false, "run the confidence-pruned ablation search (see EXPERIMENTS.md) and print its Pareto table")
		segments = flag.Int("segments", 0, "run every sweep time-parallel: split each run's measured region into this many boundary-warmed segments; with -sample, any value > 1 runs the sampled windows in parallel instead (0/1: serial)")
		server   = flag.String("server", "", "run sweeps against a sweepd server at this URL instead of in-process (reports are byte-identical)")
		gateID   = flag.String("gate", "", "run one check.sh gate by id ("+gateIDs()+"), write BENCH_<id>.json, and exit")
		version  = flag.Bool("version", false, "print model/schema/protocol versions and exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Fprint(os.Stdout, "experiments")
		return
	}
	if *recordID != "" {
		if err := runRecord(*recordID, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *gateID != "" {
		if err := runGate(os.Stdout, *gateID); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	opts := harness.DefaultOptions(w)
	opts.Warmup, opts.Measure = *warmup, *measure
	opts.Verbose = *verbose
	opts.Jobs = *jobs
	opts.CacheDir = *cacheDir
	if *progress {
		// Progress goes to stderr, never the report writer, so timing
		// noise can't leak into the deterministic output.
		opts.Clock = wallClock()
		opts.Progress = os.Stderr
	}
	if *quick {
		opts.Profiles = trace.QuickProfiles()
	}
	if *sample {
		opts.Sampling = sim.ConservativeSampling()
		if *adaptive > 0 {
			opts.Sampling.TargetCI = *adaptive
		}
	}
	if *adaptive > 0 && !*sample {
		fmt.Fprintln(os.Stderr, "experiments: -adaptive requires -sample (the stop rule acts on sampled windows)")
		os.Exit(1)
	}
	if err := (sim.Config{Sampling: opts.Sampling}).ValidateSegments(*segments); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	opts.Segments = *segments
	if *server != "" {
		c := client.New(*server)
		if *progress {
			c.Progress = os.Stderr
		}
		opts.Exec = c
	}
	if *pilot {
		if err := runAutopilotSweep(w, opts, *adaptive); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}
	r := harness.NewRunner(opts)

	figs := map[string]func() error{
		"2": r.Fig2, "3": r.Fig3, "4": r.Fig4, "5": r.Fig5,
		"6": r.Fig6and7, "7": r.Fig6and7, "9": r.Fig9, "9x": r.Fig9JRS,
		"10": r.Fig10, "11": r.Fig11, "12": r.Fig12, "13": r.Fig13,
		"14": r.Fig14, "15": r.Fig15, "16": r.Fig16,
		"artifact": r.ArtifactTable, "dist": r.Distributions,
	}
	if *all {
		fmt.Fprintf(w, "# UCP evaluation — full reproduction run\n\n")
		fmt.Fprintf(w, "Traces: %d synthetic profiles; %d warmup + %d measured instructions per run.\n",
			len(opts.Profiles), opts.Warmup, opts.Measure)
		order := []string{"2", "3", "4", "5", "6", "9", "9x", "10", "11", "12", "13", "14", "15", "16", "artifact", "dist"}
		failed := 0
		for _, k := range order {
			if err := figs[k](); err != nil {
				// A broken configuration fails its own figure; the rest of
				// the evaluation still runs. The marker is deterministic,
				// so reports stay comparable byte-for-byte.
				fmt.Fprintf(w, "\nFIGURE %s FAILED: %v\n", k, err)
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d figure(s) failed\n", failed)
			os.Exit(1)
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "need -fig or -all; figures:",
			strings.Join([]string{"2", "3", "4", "5", "6", "7", "9", "10", "11", "12", "13", "14", "15", "16", "artifact"}, ","))
		os.Exit(1)
	}
	fn, ok := figs[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(1)
	}
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
