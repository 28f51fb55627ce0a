// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads (see NOTES.md) in this process: a single client
// submits a batch to the simulator's own scheduling layers (runq pool,
// sweepd server, tpar/wpar executors) with two simulation workers and
// waits for every result, round after round on fresh pools, for the
// requested number of seconds. It checks every result, and prints a
// metric table followed by one JSON result line.
//
//	perfbench --workload full-pairs --seed 0 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced rounds, records spans around every
// call into the program, profiles the CPU, replays the workload's own
// instruction stream into each component, and reports the per-layer
// metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// workers is the simulation worker count of every pool and server.
const workers = 2

// Before each round a batch of set-ups is timed and torn down: at least
// setupBatchMin of them, and more until they add up to setupBatchTime.
// setup_s is the median over rounds of the batch means. One set-up
// takes milliseconds, so a single reading falls wholly into one of the
// host's fast or slow spells; a batch mean spans several, and batches
// spread over the run see the same host as the rounds do.
const (
	setupBatchMin  = 10
	setupBatchTime = 500 * time.Millisecond
)

// goldenJSON maps "<workload>/<trace>/<config>" to the SHA-256 of that
// job's determinism digest at the default seed (0).
//
//go:embed golden.json
var goldenJSON []byte

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: full-pairs, sampled-ablation or parallel-modes")
	seed := flag.Uint64("seed", 0, "offset added to every trace profile's seed (0 is the golden-checked default)")
	seconds := flag.Float64("seconds", 20, "how long the timed rounds run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	stateDir := flag.String("state-dir", ".bench_build", "directory for the reference cache and span logs")
	writeGolden := flag.String("write-golden", "", "write the digests of this run to the given file (use with seed 0)")
	flag.Parse()

	for _, m := range catalog() {
		if err := validMetric(m); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload full-pairs|sampled-ablation|parallel-modes, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	b := &bench{
		seed:     *seed,
		stateDir: *stateDir,
		seen:     map[string]string{},
	}
	if *seed == 0 && *writeGolden == "" {
		if err := json.Unmarshal(goldenJSON, &b.golden); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: golden digests: %v\n", err)
			return 2
		}
	}
	vals, err := b.measure(w, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", p)
	}
	if *writeGolden != "" {
		out, err := json.MarshalIndent(b.seen, "", "  ")
		if err == nil {
			err = os.WriteFile(*writeGolden, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if b.attempted > 0 {
		vals["jobs_failed_frac"] = float64(b.failed) / float64(b.attempted)
	}
	correct := len(b.problems) == 0
	if err := writeResult(os.Stdout, vals, *traced == 1, correct, max(b.attempted, 1), b.failed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// bench is one invocation's state: the workload seed, the output
// checks, and (traced runs only) the span log.
type bench struct {
	seed     uint64
	stateDir string
	spans    *spanLog

	golden map[string]string // nil unless the default seed is checked
	seen   map[string]string // digest hash per job label, from the first round

	attempted, failed int
	problems          []string
}

// profile returns the named trace profile with the workload seed added.
func (b *bench) profile(name string) trace.Profile {
	p, ok := trace.ProfileByName(name)
	if !ok {
		panic("perfbench: unknown trace profile " + name)
	}
	p.Seed += b.seed
	return p
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// check records one job outcome. A failed job, or a digest that differs
// from the same job's digest in an earlier round or (default seed) from
// the committed golden, fails the run and counts as a failed job.
func (b *bench) check(label string, jr runq.JobResult) {
	b.attempted++
	if jr.Err != nil {
		b.failed++
		b.fail("%s: %v", label, jr.Err)
		return
	}
	d := digestHash(jr.Result)
	if prev, ok := b.seen[label]; ok && prev != d {
		b.failed++
		b.fail("%s: digest differs from the first round's", label)
		return
	}
	b.seen[label] = d
	if b.golden != nil && b.golden[label] != d {
		b.failed++
		b.fail("%s: digest does not match the golden for seed 0", label)
	}
}

// jobLabel names a job in checks, goldens and spans.
func jobLabel(w string, j runq.Job) string {
	return w + "/" + j.Profile.Name + "/" + j.Config.Name
}

// measure runs the workload: references, a discarded warm-up round,
// then timed set-ups and rounds until d has elapsed (traced runs
// alternate untraced and traced rounds), and finally, when traced, the
// per-layer replays. Every timed set-up and round starts after settle,
// so each starts from the same memory state.
func (b *bench) measure(w *workload, d time.Duration, traced bool) (map[string]float64, error) {
	vals := map[string]float64{}
	t0 := time.Now()
	refs, err := b.references(w)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: references ready in %.1fs\n", w.name, b.seed, time.Since(t0).Seconds())

	if _, err := w.round(b, nil); err != nil { // warm-up: lets lazy set-up and the heap settle
		return nil, err
	}
	if len(b.problems) > 0 {
		return vals, nil // the output check already failed; timing it is moot
	}
	var setups, walls, tracedWalls, rates, mems []float64
	var obs []*layerObs
	var cpu cpuProfile
	if traced {
		b.spans = newSpanLog()
	}
	deadline := time.Now().Add(d)
	// Two untraced rounds at least; a traced run's odd rounds are traced.
	for i := 0; len(walls) < 2 || time.Now().Before(deadline); i++ {
		var batch []float64
		for sum := time.Duration(0); len(batch) < setupBatchMin || sum < setupBatchTime; {
			settle()
			sd, err := w.setupOnly(b)
			if err != nil {
				return nil, err
			}
			batch = append(batch, sd.Seconds())
			sum += sd
		}
		setups = append(setups, mean(batch))
		settle() // before the profiler starts, so it sees only the round
		var o *layerObs
		if traced && i%2 == 1 {
			o = &layerObs{}
			if err := cpu.start(); err != nil {
				return nil, err
			}
		}
		r, err := w.round(b, o)
		if o != nil {
			if err := cpu.stop(); err != nil {
				return nil, err
			}
		}
		if err != nil {
			return nil, err
		}
		if o != nil {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
			obs = append(obs, o)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.insts)/r.wall.Seconds()/1e6)
		mems = append(mems, r.peakMB)
	}
	var acc accuracy
	if w.accuracy != nil {
		acc = w.accuracy(w.lastResults, refs)
	}
	vals["ipc_err_pct"], vals["ucp_speedup_err_pp"] = acc.ipcErr, acc.speedupErr
	vals["wall_s"] = median(walls)
	vals["sim_minsts_per_s"] = median(rates)
	vals["setup_s"] = median(setups)
	printSpread(w.name, "wall_s", walls)
	printSpread(w.name, "setup_s", setups)
	printSpread(w.name, "peak_rss_mb", mems)

	if traced {
		vals["trace_overhead_s"] = median(tracedWalls) - median(walls)
		summarizeObs(obs, vals)
		shares, err := cpu.shares()
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			vals["cpu."+k+".self_pct"] = v
		}
		modelledCounters(w.lastResults, vals)
		if err := b.layers(w, vals); err != nil {
			return nil, err
		}
		path := filepath.Join(b.stateDir, fmt.Sprintf("spans-%s-%d.json", w.name, b.seed))
		if err := b.spans.writeSpans(path, os.Stderr); err != nil {
			return nil, err
		}
	}
	vals["peak_rss_mb"] = median(mems)
	return vals, nil
}

// printSpread reports a timing's median, sample count and the highest
// tail percentile that has at least ten samples beyond it.
func printSpread(w, name string, xs []float64) {
	p, v := highestTail(xs)
	if p == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s median %.4g over %d samples, range %.4g..%.4g (too few for a tail percentile)\n",
			w, name, median(xs), len(xs), slices.Min(xs), slices.Max(xs))
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s median %.4g p%.0f %.4g over %d samples\n", w, name, median(xs), p, v, len(xs))
}

// cpuProfile accumulates the CPU profiles of the traced rounds.
type cpuProfile struct {
	buf  bytes.Buffer
	sums map[string]float64
}

func (c *cpuProfile) start() error {
	c.buf.Reset()
	return pprof.StartCPUProfile(&c.buf)
}

func (c *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	sums, err := cpuSums(c.buf.Bytes())
	if err != nil {
		return err
	}
	if c.sums == nil {
		c.sums = map[string]float64{}
	}
	for k, v := range sums {
		c.sums[k] += v
	}
	return nil
}

// shares converts the accumulated sample sums into percentages.
func (c *cpuProfile) shares() (map[string]float64, error) {
	var all float64
	for _, v := range c.sums {
		all += v
	}
	if all == 0 {
		return nil, fmt.Errorf("the traced rounds' CPU profile holds no samples")
	}
	out := map[string]float64{}
	for _, k := range cpuBuckets {
		out[k] = c.sums[k] / all * 100
	}
	return out, nil
}

// memSampler tracks the peak of the memory the Go runtime holds from
// the OS (mapped minus released to the OS, which is what stays
// resident) while a round runs, sampling every 2ms.
type memSampler struct {
	stop chan struct{}
	done chan uint64
}

// settle collects garbage and returns freed pages to the OS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// startMemSampler starts sampling; callers settle first, so every round
// starts from the same footing.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-m.stop:
				m.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// peakMB stops the sampler and returns the peak in MiB.
func (m *memSampler) peakMB() float64 {
	close(m.stop)
	return float64(<-m.done) / (1 << 20)
}

// digestHash is the hex SHA-256 of a result's determinism digest.
func digestHash(r sim.Result) string { return sha256Hex([]byte(r.DeterminismDigest())) }
