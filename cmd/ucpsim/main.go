// Command ucpsim runs one machine configuration over one or more
// synthetic workloads (or a recorded trace file) and prints the key
// metrics: IPC, µ-op cache hit rate, switch PKI, conditional MPKI, and
// — when UCP is enabled — trigger/prefetch statistics.
//
// Multi-profile runs (and -compare) execute on an internal/runq worker
// pool: -jobs bounds concurrency, -cache-dir memoizes results across
// invocations, and output order is always the submission order.
//
// Examples:
//
//	ucpsim -trace srv203
//	ucpsim -trace all -ucp -warmup 800000 -measure 700000
//	ucpsim -trace all -ucp -jobs 8 -cache-dir ~/.cache/ucp
//	ucpsim -trace int02 -ucp -ucp-noind -threshold 1000
//	ucpsim -file trace.ucpt -prefetcher fnlmma
//	ucpsim -trace srv203 -sample -adaptive 0.02   # stop once the IPC CI is ±2%
//	ucpsim -trace srv203 -sample -segments 8      # sampled windows in parallel
//	ucpsim -trace srv205 -compare          # baseline vs UCP side by side
//	ucpsim -trace srv203 -ucp -json        # machine-readable output
//	ucpsim -trace srv206 -ucp -hist        # stream/refill distributions
//	ucpsim -trace quick -digest            # determinism digests only
//	ucpsim -trace srv203 -cpuprofile cpu.pb.gz   # pprof the hot loop
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ucp"
	"ucp/internal/buildinfo"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd/client"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status (2 for a flag
// error, 1 for any other failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ucpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceName  = fs.String("trace", "srv203", "profile name, or 'all' for the full default set")
		file       = fs.String("file", "", "run a recorded .ucpt trace file instead of a profile")
		useUCP     = fs.Bool("ucp", false, "enable the UCP alternate-path prefetcher")
		noInd      = fs.Bool("ucp-noind", false, "UCP without the dedicated indirect predictor")
		tillL1I    = fs.Bool("ucp-l1i", false, "UCP prefetching only to the L1I (no µ-op fill)")
		shared     = fs.Bool("ucp-shared-decoders", false, "UCP sharing the demand decoders")
		idealBTB   = fs.Bool("ucp-ideal-btb", false, "UCP with ideal BTB banking")
		tageConf   = fs.Bool("ucp-tage-conf", false, "use Seznec's TAGE-Conf instead of UCP-Conf")
		threshold  = fs.Int("threshold", 500, "UCP stop threshold")
		prefetcher = fs.String("prefetcher", "", "standalone L1I prefetcher: fnlmma, fnlmma++, djolt, ep, ep++")
		noUop      = fs.Bool("no-uop-cache", false, "remove the µ-op cache")
		idealUop   = fs.Bool("ideal-uop-cache", false, "perfect µ-op cache")
		warmup     = fs.Uint64("warmup", 800_000, "warmup instructions")
		measure    = fs.Uint64("measure", 700_000, "measured instructions")
		sample     = fs.Bool("sample", false, "sampled simulation: fast-forward between detailed windows (conservative geometry)")
		sampleFast = fs.Bool("sample-fast", false, "with -sample: bounded-horizon geometry (small-footprint traces only; see EXPERIMENTS.md)")
		samplePer  = fs.Uint64("sample-period", 0, "with -sample: override the sampling period (instructions)")
		sampleWin  = fs.Uint64("sample-window", 0, "with -sample: override the measured window length")
		sampleWarm = fs.Uint64("sample-warm", 0, "with -sample: override the detailed-warm length")
		sampleFF   = fs.Uint64("sample-ffwarm", 0, "with -sample: override the functional-warm horizon")
		adaptive   = fs.Float64("adaptive", 0, "with -sample: stop adding windows once the relative 95% CI half-width of the window IPC mean drops below this (0: fixed geometry)")
		adaptMin   = fs.Int("adaptive-min", 0, "with -adaptive: minimum windows before the first stop check (0: default)")
		adaptMax   = fs.Int("adaptive-max", 0, "with -adaptive: cap on windows even if the target is unmet (0: the fixed-geometry budget)")
		segments   = fs.Int("segments", 0, "time-parallel run: split the measured region into this many boundary-warmed segments; with -sample, any value > 1 runs the sampled windows in parallel instead, which -adaptive rejects (0/1: serial)")
		compare    = fs.Bool("compare", false, "run baseline AND UCP, reporting the speedup")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON instead of the table")
		hist       = fs.Bool("hist", false, "print stream-length and refill-latency distributions")
		jobs       = fs.Int("jobs", 0, "concurrent simulations (default GOMAXPROCS); output order is unaffected")
		cacheDir   = fs.String("cache-dir", "", "content-addressed result cache directory (empty: no on-disk cache)")
		ckptDir    = fs.String("ckpt-dir", "", "warm-checkpoint store directory for sampled and time-parallel runs (empty: no checkpoint reuse)")
		ckptMax    = fs.Int64("ckpt-max-bytes", 0, "bound the checkpoint directory's on-disk bytes, pruning least-recently-verified blobs (0: unbounded)")
		digest     = fs.Bool("digest", false, "print Result.DeterminismDigest instead of the metric table (optimization-neutrality gate)")
		server     = fs.String("server", "", "run simulations against a sweepd server at this URL instead of in-process")
		version    = fs.Bool("version", false, "print model/schema/protocol versions and exit")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *version {
		buildinfo.Fprint(stdout, "ucpsim")
		return 0
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	cfg := ucp.Baseline()
	if *useUCP {
		u := ucp.DefaultUCP()
		if *noInd {
			u = ucp.NoIndUCP()
		}
		u.StopThreshold = *threshold
		u.TillL1I = *tillL1I
		u.SharedDecoders = *shared
		u.IdealBTBBanking = *idealBTB
		if *tageConf {
			u.Estimator = ucp.EstimatorTageConf
		}
		cfg = ucp.WithUCP(u)
	}
	cfg.L1IPrefetcher = *prefetcher
	cfg.Ideal.NoUopCache = *noUop
	cfg.Ideal.UopAlwaysHit = *idealUop
	cfg.WarmupInsts, cfg.MeasureInsts = *warmup, *measure
	if *sample {
		sc := ucp.ConservativeSampling()
		if *sampleFast {
			sc = ucp.FastSampling()
		}
		if *samplePer > 0 {
			sc.PeriodInsts = *samplePer
		}
		if *sampleWin > 0 {
			sc.DetailedInsts = *sampleWin
		}
		if *sampleWarm > 0 {
			sc.WarmInsts = *sampleWarm
		}
		if *sampleFF > 0 {
			sc.FFWarmInsts = *sampleFF
		}
		if *adaptive > 0 {
			sc.TargetCI = *adaptive
			sc.MinWindows = *adaptMin
			sc.MaxWindows = *adaptMax
		}
		cfg.Sampling = sc
	}
	if *adaptive > 0 && !*sample {
		fmt.Fprintln(stderr, "ucpsim: -adaptive requires -sample (the stop rule acts on sampled windows)")
		return 1
	}
	if err := cfg.ValidateSegments(*segments); err != nil {
		fmt.Fprintln(stderr, "ucpsim:", err)
		return 1
	}
	pool := runq.New(runq.Options{
		Workers:      *jobs,
		CacheDir:     *cacheDir,
		CkptDir:      *ckptDir,
		CkptMaxBytes: *ckptMax,
		CkptNow:      func() int64 { return time.Now().UnixNano() }, //ucplint:ignore wallclock // checkpoint-pruning clock, injected only here
	})
	// A result or checkpoint the disk caches failed to keep costs the
	// next run a recomputation: say so in one line at exit, whether the
	// jobs succeeded or not.
	defer pool.ReportWriteFailures(stderr)
	var exec runq.Runner = pool
	if *server != "" {
		if *file != "" {
			// A recorded trace is local state; its content digest cannot be
			// resolved against a remote server's filesystem.
			fmt.Fprintln(stderr, "ucpsim: -file and -server are incompatible; recorded traces run in-process")
			return 1
		}
		exec = client.New(*server)
	}
	var (
		labels  []string
		jobList []runq.Job
	)
	if *file != "" {
		// The pool decodes a recorded trace once into a shared arena,
		// validating every record, and serves any repeat invocation
		// from the result cache.
		labels = []string{*file}
		jobList = []runq.Job{{Config: cfg, TraceFile: *file, Warmup: *warmup, Measure: *measure, Segments: *segments}}
	} else {
		profiles := selectProfiles(*traceName, stderr)
		if profiles == nil {
			return 1
		}
		if *compare {
			return runCompare(exec, profiles, *warmup, *measure, *segments, stdout, stderr)
		}
		for _, p := range profiles {
			labels = append(labels, p.Name)
			jobList = append(jobList, runq.Job{Config: cfg, Profile: p, Warmup: *warmup, Measure: *measure, Segments: *segments})
		}
	}
	results := exec.RunAll(jobList)
	if !*jsonOut && !*digest {
		header(stdout)
	}
	for i, jr := range results {
		if jr.Err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", labels[i], jr.Err)
			return 1
		}
		if *digest {
			fmt.Fprint(stdout, jr.Result.DeterminismDigest())
			continue
		}
		if err := emit(stdout, jr.Result, *jsonOut, *hist); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// selectProfiles resolves -trace to its profiles. An unknown name
// returns nil after listing the available ones on stderr.
func selectProfiles(name string, stderr io.Writer) []ucp.Profile {
	switch name {
	case "all":
		return ucp.DefaultProfiles()
	case "quick":
		return ucp.QuickProfiles()
	default:
		p, ok := ucp.ProfileByName(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown profile %q; available:", name)
			for _, pr := range ucp.DefaultProfiles() {
				fmt.Fprintf(stderr, " %s", pr.Name)
			}
			fmt.Fprintln(stderr)
			return nil
		}
		return []ucp.Profile{p}
	}
}

// runCompare runs the baseline and UCP over each profile
// (interleaved base/UCP job pairs) and reports the per-trace speedup.
// It returns the exit status: 1, after printing the error, when a job
// failed.
func runCompare(exec runq.Runner, profiles []ucp.Profile, warmup, measure uint64, segments int, stdout, stderr io.Writer) int {
	base := ucp.Baseline()
	withUCP := ucp.WithUCP(ucp.DefaultUCP())
	jobList := make([]runq.Job, 0, 2*len(profiles))
	for _, p := range profiles {
		jobList = append(jobList,
			runq.Job{Config: base, Profile: p, Warmup: warmup, Measure: measure, Segments: segments},
			runq.Job{Config: withUCP, Profile: p, Warmup: warmup, Measure: measure, Segments: segments})
	}
	results := exec.RunAll(jobList)
	fmt.Fprintf(stdout, "%-10s %10s %10s %10s %9s %9s\n",
		"trace", "base IPC", "UCP IPC", "speedup%", "HR base%", "HR UCP%")
	for i, p := range profiles {
		b, u := results[2*i], results[2*i+1]
		for _, r := range []runq.JobResult{b, u} {
			if r.Err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", p.Name, r.Err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "%-10s %10.4f %10.4f %+10.2f %9.2f %9.2f\n",
			p.Name, b.Result.IPC, u.Result.IPC, 100*(u.Result.IPC/b.Result.IPC-1),
			b.Result.UopHitRate*100, u.Result.UopHitRate*100)
	}
	return 0
}

// resultJSON is the -json object of one result.
func resultJSON(r sim.Result) map[string]any {
	out := map[string]any{
		"trace":            r.Trace,
		"config":           r.Name,
		"instructions":     r.Insts,
		"cycles":           r.Cycles,
		"ipc":              r.IPC,
		"uopHitRate":       r.UopHitRate,
		"switchPKI":        r.SwitchPKI,
		"condMPKI":         r.CondMPKI,
		"prefetchAccuracy": r.PrefetchAccuracy,
		"ucp": map[string]any{
			"triggers":     r.UCP.Triggers,
			"fills":        r.UCP.FillsInserted,
			"prefetches":   r.UCP.PrefetchesIssued,
			"linesPerPath": safeDiv(r.UCP.LinesPrefetched, r.UCP.Triggers),
			"storageKB":    r.UCPStorageKB,
			"btbConflicts": r.UCP.BTBConflicts,
			// Why alternate paths did not start or ended, and how far
			// each walked (the same counters as the digest's ucp= line).
			"triggersBlocked": r.UCP.TriggersBlocked,
			"stops": map[string]any{
				"threshold": r.UCP.StopThreshold,
				"noBranch":  r.UCP.StopNoBranch,
				"indirect":  r.UCP.StopIndirect,
				"rasEmpty":  r.UCP.StopRASEmpty,
				"newH2P":    r.UCP.StopNewH2P,
			},
			"walkedPerPath": safeDiv(r.UCP.WalkedInsts, r.UCP.Triggers),
		},
	}
	if s := r.Sampled; s != nil {
		sampled := map[string]any{
			"windows":       s.Windows,
			"skippedInsts":  s.SkippedInsts,
			"ffInsts":       s.FFInsts,
			"detailedInsts": s.DetailedInsts,
			"measuredInsts": s.MeasuredInsts,
			"ipcMean":       s.IPCMean,
			"ipcCI95":       s.IPCCI95,
			"mpkiMean":      s.MPKIMean,
			"mpkiCI95":      s.MPKICI95,
		}
		if s.TargetCI > 0 {
			sampled["targetCI"] = s.TargetCI
			sampled["windowBudget"] = s.WindowBudget
			sampled["targetMet"] = s.TargetMet
		}
		out["sampled"] = sampled
	}
	if tp := r.TimePar; tp != nil {
		out["timepar"] = map[string]any{
			"segments":     tp.Segments,
			"boundaries":   tp.Boundaries,
			"segInsts":     tp.SegInsts,
			"segCycles":    tp.SegCycles,
			"segIPC":       tp.SegIPC,
			"skippedInsts": tp.SkippedInsts,
			"ffInsts":      tp.FFInsts,
		}
	}
	return out
}

// emit prints one result to w as a table row or JSON object.
func emit(w io.Writer, r sim.Result, asJSON, withHist bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(resultJSON(r))
	}
	row(w, r)
	if s := r.Sampled; s != nil {
		fmt.Fprintf(w, "%-10s sampled: %d windows, IPC %.4f ±%.4f, MPKI %.3f ±%.3f (95%% CI); %d skipped / %d functional / %d detailed\n",
			r.Trace, s.Windows, s.IPCMean, s.IPCCI95, s.MPKIMean, s.MPKICI95,
			s.SkippedInsts, s.FFInsts, s.DetailedInsts)
		if s.TargetCI > 0 {
			verdict := "target met"
			if !s.TargetMet {
				verdict = "budget exhausted"
			}
			fmt.Fprintf(w, "%-10s adaptive: %d/%d windows, target ±%.2f%% — %s\n",
				r.Trace, s.Windows, s.WindowBudget, s.TargetCI*100, verdict)
		}
	}
	if tp := r.TimePar; tp != nil {
		fmt.Fprintf(w, "%-10s timepar: %d segments; %d skipped / %d functional at boundaries\n",
			r.Trace, tp.Segments, tp.SkippedInsts, tp.FFInsts)
	}
	if withHist {
		fmt.Fprintln(w, r.StreamLens.Render())
		fmt.Fprintln(w, r.RefillLat.Render())
	}
	return nil
}

func safeDiv(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func header(w io.Writer) {
	fmt.Fprintf(w, "%-10s %8s %8s %9s %9s %9s %10s %9s\n",
		"trace", "IPC", "uopHR%", "switchPKI", "condMPKI", "ucpTrig", "ucpFills", "prefAcc%")
}

func row(w io.Writer, r sim.Result) {
	fmt.Fprintf(w, "%-10s %8.4f %8.2f %9.2f %9.2f %9d %10d %9.2f\n",
		r.Trace, r.IPC, r.UopHitRate*100, r.SwitchPKI, r.CondMPKI,
		r.UCP.Triggers, r.UCP.FillsInserted, r.PrefetchAccuracy*100)
}
