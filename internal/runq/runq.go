// Package runq schedules simulation runs across a worker pool and
// memoizes their results in a content-addressed cache — in-process
// always, on disk when a cache directory is configured.
//
// The experiment harness submits batches of (config, trace, budget)
// jobs; runq fans them out over Workers goroutines and returns results
// in submission order, so any report rendered from them is byte-for-byte
// identical at every worker count. Each distinct job is keyed by a
// SHA-256 digest of its full identity (see Key), executed at most once
// per key, and — with a cache directory — never recomputed across
// process restarts until the model or schema version stamp changes.
//
// Workers recover panics into per-job errors, so one broken
// configuration fails its own figure instead of taking down the whole
// evaluation. A failed job runs once: simulation is deterministic, so
// a second attempt would only repeat the failure. Progress and ETA
// reporting flow through an injected Clock: runq itself never reads
// the wall clock (the ucplint wallclock rule), the real clock is wired
// only in cmd/.
package runq

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"ucp/internal/ckpt"
	"ucp/internal/core"
	"ucp/internal/sim"
	"ucp/internal/tpar"
	"ucp/internal/trace"
)

// Job is one simulation to run: cfg over a workload at the given
// instruction budgets. The workload is the synthetic Profile, or — when
// TraceFile is non-empty — a recorded .ucpt trace, which the pool
// decodes once into a shared trace.Arena regardless of how many jobs
// reference it. Warmup/Measure override the config's own
// WarmupInsts/MeasureInsts fields.
type Job struct {
	Config    sim.Config
	Profile   trace.Profile
	TraceFile string
	Warmup    uint64
	Measure   uint64

	// Segments > 1 runs the job through the interval executor
	// (internal/tpar) on the pool's shared segment gate: a full-detail
	// job splits its measured region into that many boundary-warmed
	// trace segments, a fixed-schedule sampled job
	// (Config.Sampling.Enabled) runs its measured windows in parallel,
	// the window plan and boundary warm coming from the sampling
	// geometry so Segments is only the opt-in switch; an adaptive one is
	// rejected (sim.Config.ValidateSegments). Parallel results differ
	// from serial ones (counter blocks become measured-region deltas and
	// a bounded warming error applies; see EXPERIMENTS.md), so the
	// parallel mode is part of the cache key. 0 and 1 are the serial
	// engine.
	Segments int
	// Boundary is retired: boundary warming is fixed at
	// sim.DefaultBoundaryWarm for segments and at the sampling geometry
	// for windows. Only the zero value is accepted (a job carrying any
	// other value fails with an error); the field survives only because
	// the benchmark harness (_perfbench/workloads.go) still assigns the
	// zero value, and goes once that line does.
	Boundary sim.BoundaryWarm
}

// runConfig is the config as the job runs it: Warmup and Measure
// replace the config's own budgets.
func (j Job) runConfig() sim.Config {
	cfg := j.Config
	cfg.WarmupInsts, cfg.MeasureInsts = j.Warmup, j.Measure
	return cfg
}

// Validate checks the job as it will run: its config under the job's
// budgets, then the segment composition. A job it rejects can only
// fail at execution.
func (j Job) Validate() error {
	cfg := j.runConfig()
	if err := cfg.Validate(); err != nil {
		return err
	}
	return cfg.ValidateSegments(j.Segments)
}

// traceLabel names the job's workload in errors and reports.
func (j Job) traceLabel() string {
	if j.TraceFile != "" {
		return j.TraceFile
	}
	return j.Profile.Name
}

// Result provenance values for JobResult.Source.
const (
	// SourceRun marks a freshly executed simulation.
	SourceRun = "run"
	// SourceDisk marks a result replayed from the on-disk cache.
	SourceDisk = "disk"
	// SourceMemo marks a result served from the in-process memo (or
	// copied from an identical job earlier in the same batch).
	SourceMemo = "memo"
)

// JobResult pairs a job with its outcome. Exactly one of Result/Err is
// meaningful: Err != nil means the job failed.
type JobResult struct {
	Job    Job
	Key    string
	Result sim.Result
	Err    error
	// Source records where the result came from: SourceRun, SourceDisk,
	// or SourceMemo.
	Source string
	// Attempts counts executions of this job: 1 when it ran, 0 when
	// served from a cache.
	Attempts int
}

// Clock returns elapsed time since an origin chosen by the caller. It
// exists so progress/ETA reporting works without runq ever touching the
// wall clock; cmd/ wires time.Since behind it.
type Clock func() time.Duration

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrent simulations (GOMAXPROCS when <= 0).
	Workers int
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// Clock supplies elapsed time for ETA estimates (nil: no ETA).
	Clock Clock
	// Progress receives scheduler progress lines (nil: silent). It must
	// not alias the report writer: progress output is nondeterministic
	// by nature (completion-ordered, timed).
	Progress io.Writer
	// UseArena is retired and has no effect: synthetic-profile jobs
	// always stream from the generator, since an arena's build costs
	// more than its seeks save (EXPERIMENTS.md, "Cross-config reuse"),
	// and recorded-trace jobs always share one decoded arena
	// (FileArena). The field survives only because the benchmark
	// harness (_perfbench/workloads.go) still assigns it, and goes once
	// that line does.
	UseArena bool
	// Checkpoints enables functional-warm checkpoint reuse for sampled
	// jobs (sim.WarmCheckpoints): jobs sharing a checkpoint key pay the
	// sampling fast-forward once per pool instead of once per job, with
	// byte-identical results. In-memory unless CkptDir is also set.
	Checkpoints bool
	// CkptDir persists checkpoints next to the result cache so later
	// processes reuse them (implies Checkpoints).
	CkptDir string
	// CkptMaxBytes bounds CkptDir's on-disk footprint: after each
	// persisted checkpoint, least-recently-verified blobs are pruned
	// until the directory fits (0: unbounded). Boundary checkpoints
	// from parallel runs accumulate one blob per segment or window
	// boundary, so long-lived services (sweepd) should set a bound.
	CkptMaxBytes int64
	// CkptNow supplies wall time (unix nanoseconds) for the pruning
	// order's verify-stamps. Like Clock it is injected from cmd/ only;
	// nil degrades pruning to least-recently-written order.
	CkptNow func() int64
	// RunJob overrides the job execution body (nil: the real
	// simulation). It is the seam sweepd's tests use to inject slow,
	// failing, or panicking jobs; the pool still wraps it with panic
	// recovery, the memo, and the caches.
	RunJob func(Job, sim.ProgressFunc) (sim.Result, error)
}

// Stats counts what the pool did, cumulatively over its lifetime.
type Stats struct {
	// Runs counts simulations actually executed (including failed ones).
	Runs int `json:"runs"`
	// MemoHits counts jobs served from the in-process memo.
	MemoHits int `json:"memo_hits"`
	// DiskHits counts jobs replayed from the on-disk cache.
	DiskHits int `json:"disk_hits"`
	// Retries is retired and always 0: a failed job is not rerun. The
	// field stays because the benchmark harness
	// (_perfbench/workloads.go) and sweepd's statz still report it.
	Retries int `json:"retries"`
	// Failures counts jobs whose run panicked or returned an error.
	Failures int `json:"failures"`
	// WriteFailures counts results the disk cache failed to write
	// (CacheDir unwritable, full or obstructed); later pools miss them.
	WriteFailures int `json:"write_failures"`
}

// Pool executes jobs. RunAll is not reentrant — call it from one
// goroutine at a time — but RunOne is safe from any number of
// goroutines concurrently (the sweepd server's executors lean on
// this), and either may run while the other is in flight: every key is
// still executed at most once, enforced by the per-key single-flight.
type Pool struct {
	opts Options

	mu    sync.Mutex
	stats Stats
	done  int // jobs completed in the current RunAll, for progress

	// results memoizes every job's outcome, failures included, and
	// persists successful ones under CacheDir. Its single-flight makes
	// each key execute at most once however many callers race on it.
	results *ckpt.Cache[*outcome]
	// progs and arenas are memory-only caches of the built programs
	// and decoded recorded-trace arenas that jobs share.
	progs  *ckpt.Cache[*built[*trace.Program]]
	arenas *ckpt.Cache[*built[*trace.Arena]]

	// ckpts is the warm-checkpoint store shared by every sampled job
	// and every segment or window boundary of a parallel job (nil when
	// checkpoints are disabled).
	ckpts *ckpt.Store

	// segGate bounds detailed-simulation concurrency across every
	// parallel job on this pool: each in-flight segment or window holds
	// one slot, so a -segments job cooperates with the worker pool
	// instead of multiplying it (workers × segments goroutines would
	// oversubscribe the host).
	segGate chan struct{}

	// runJob is the execution seam; Options.RunJob (or tests)
	// substitute failure modes.
	runJob func(Job, sim.ProgressFunc) (sim.Result, error)
}

// built is a memory-only cache value: what a constructor returned,
// error included, so a bad profile or unreadable file fails every job
// that names it without being rebuilt.
type built[T any] struct {
	v   T
	err error
}

// build returns key's value from c, running mk at most once per key.
func build[T any](c *ckpt.Cache[*built[T]], key string, mk func() (T, error)) (T, error) {
	b, hit, release := c.Acquire(key)
	if hit == ckpt.Miss {
		defer release(nil) // a panicking mk hands the key to a waiter
		v, err := mk()
		b = &built[T]{v, err}
		release(b)
	}
	return b.v, b.err
}

// New builds a pool.
func New(opts Options) *Pool {
	// Without a cache directory results stay in memory: no codec, so
	// no record is sealed only to be thrown away.
	var results ckpt.Codec[*outcome]
	if opts.CacheDir != "" {
		results = recordCodec
	}
	p := &Pool{
		opts:    opts,
		results: ckpt.NewCache(opts.CacheDir, 0, nil, results),
		progs:   ckpt.NewCache("", 0, nil, ckpt.Codec[*built[*trace.Program]]{}),
		arenas:  ckpt.NewCache("", 0, nil, ckpt.Codec[*built[*trace.Arena]]{}),
	}
	if opts.Checkpoints || opts.CkptDir != "" {
		p.ckpts = ckpt.NewStoreLimit(opts.CkptDir, opts.CkptMaxBytes, opts.CkptNow)
	}
	p.segGate = make(chan struct{}, p.workers())
	p.runJob = p.simulate
	if opts.RunJob != nil {
		p.runJob = opts.RunJob
	}
	return p
}

// Runner is the job-execution surface the experiment harness depends
// on. A local *Pool implements it; so does the sweepd client, which is
// how every existing sweep runs remote behind a -server flag.
type Runner interface {
	// RunAll executes the batch and returns one JobResult per job in
	// submission order (see Pool.RunAll for the contract).
	RunAll(jobs []Job) []JobResult
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	s.WriteFailures = p.results.WriteFailures()
	return s
}

// CheckpointStats reports warm-checkpoint store activity: blobs this
// pool captured (one per distinct checkpoint key it fast-forwarded to;
// blobs loaded from CkptDir are restores, not captures) and restore
// hits. Both are zero when checkpoints are disabled.
func (p *Pool) CheckpointStats() (captured, restored int) {
	if p.ckpts == nil {
		return 0, 0
	}
	return p.ckpts.Published(), p.ckpts.Hits()
}

// CheckpointWriteFailures reports how many checkpoints the store
// failed to write to CkptDir; zero when checkpoints are disabled.
func (p *Pool) CheckpointWriteFailures() int {
	if p.ckpts == nil {
		return 0
	}
	return p.ckpts.WriteFailures()
}

// ReportWriteFailures writes one line to w when the result cache or
// the checkpoint store failed to write anything to disk (Stats'
// WriteFailures, CheckpointWriteFailures), and nothing otherwise. The
// runs themselves succeeded; the next process misses those entries.
func (p *Pool) ReportWriteFailures(w io.Writer) {
	results, ckpts := p.results.WriteFailures(), p.CheckpointWriteFailures()
	if results == 0 && ckpts == 0 {
		return
	}
	fmt.Fprintf(w, "runq: %d result(s) and %d checkpoint(s) could not be written to disk; the next run recomputes them\n", results, ckpts)
}

// CheckpointBytes reports the total size of the warm-checkpoint blobs
// the pool's store holds in memory; zero when checkpoints are disabled.
func (p *Pool) CheckpointBytes() int {
	if p.ckpts == nil {
		return 0
	}
	return p.ckpts.Bytes()
}

// ArenaCount reports how many shared decoded trace arenas the pool
// holds — one per distinct recorded file; synthetic workloads stream
// from the generator and build none. The sweepd statz surface exposes
// it as the shared-tier footprint.
func (p *Pool) ArenaCount() int {
	return p.arenas.Len()
}

func (p *Pool) workers() int {
	if p.opts.Workers > 0 {
		return p.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Program returns the built program for prof, constructing it at most
// once per parameterization. Programs are immutable once built (all
// walk state lives in trace.Walker), so one instance is shared by every
// concurrent run over the same workload.
func (p *Pool) Program(prof trace.Profile) (*trace.Program, error) {
	key, err := profileKey(prof)
	if err != nil {
		return nil, err
	}
	return build(p.progs, key, func() (*trace.Program, error) { return trace.BuildProgram(prof) })
}

// FileArena returns the shared decoded arena for a recorded trace file,
// reading and decoding it at most once per pool however many jobs
// reference it. Cursors handed out by the arena are independent, so
// concurrent workers share one copy of the decoded stream.
func (p *Pool) FileArena(path string) (*trace.Arena, error) {
	return build(p.arenas, path, func() (*trace.Arena, error) { return trace.LoadArena(path) })
}

// jobKey resolves a job's cache key, reading the trace file's content
// digest through the shared arena for recorded-trace jobs.
func (p *Pool) jobKey(job Job) (string, error) {
	if job.TraceFile == "" {
		return keyWith(job, "")
	}
	a, err := p.FileArena(job.TraceFile)
	if err != nil {
		return "", err
	}
	return keyWith(job, a.ID())
}

// RunAll executes the batch and returns one JobResult per job, in
// submission order regardless of completion order or worker count.
// Jobs with identical keys are executed once; duplicates receive a copy
// of the leader's outcome. RunAll never panics on a bad job — failures
// come back in JobResult.Err.
func (p *Pool) RunAll(jobs []Job) []JobResult {
	results := make([]JobResult, len(jobs))
	// Resolve keys; the first job with each key leads, later duplicates
	// in the same batch copy its outcome after the barrier.
	dupOf := make([]int, len(jobs))
	leader := make(map[string]int, len(jobs))
	var queue []int
	for i, j := range jobs {
		dupOf[i] = -1
		results[i] = JobResult{Job: j}
		key, err := p.jobKey(j)
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Key = key
		if li, dup := leader[key]; dup {
			dupOf[i] = li
			continue
		}
		leader[key] = i
		queue = append(queue, i)
	}

	p.mu.Lock()
	p.done = 0
	p.mu.Unlock()
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = p.execute(results[i], nil)
				p.noteProgress(len(queue))
			}
		}()
	}
	for _, i := range queue {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	for i, li := range dupOf {
		if li < 0 {
			continue
		}
		results[i].Result = results[li].Result
		results[i].Err = results[li].Err
		results[i].Source = SourceMemo
	}
	return results
}

// RunOne resolves a single job with an optional per-run progress hook.
// Unlike RunAll it is safe to call from any number of goroutines
// concurrently: callers racing on the same key coalesce onto one
// execution through the pool's single-flight, and every later call is
// a memo hit. The hook observes the winning execution only — a
// coalesced caller returns when the leader publishes, without
// re-observing its stages.
func (p *Pool) RunOne(job Job, hook sim.ProgressFunc) JobResult {
	jr := JobResult{Job: job}
	key, err := p.jobKey(job)
	if err != nil {
		jr.Err = err
		return jr
	}
	jr.Key = key
	return p.execute(jr, hook)
}

// execute resolves one job through the result cache: a memo or
// disk hit returns the stored outcome; otherwise this call leads the
// key's flight, runs the simulation once with panic recovery, and
// publishes the outcome (result or error) to every caller coalesced
// on the key. RunAll's loop-spawned workers and any number of
// concurrent RunOne callers go through it; the pool's counters are
// under p.mu.
//
//ucplint:guarded
func (p *Pool) execute(jr JobResult, hook sim.ProgressFunc) JobResult {
	o, hit, release := p.results.Acquire(jr.Key)
	if hit != ckpt.Miss {
		p.mu.Lock()
		if hit == ckpt.Memo {
			p.stats.MemoHits++
			jr.Source = SourceMemo
		} else {
			p.stats.DiskHits++
			jr.Source = SourceDisk
		}
		p.mu.Unlock()
		jr.Result, jr.Err = o.rec.Result, o.err
		return jr
	}

	res, err := recoverRun(p.runJob, jr.Job, hook)
	jr.Source, jr.Attempts = SourceRun, 1
	if err != nil {
		jr.Err = fmt.Errorf("%s on %s: %w", jr.Job.Config.Name, jr.Job.traceLabel(), err)
	} else {
		jr.Result = res
	}
	p.mu.Lock()
	p.stats.Runs++
	if err != nil {
		p.stats.Failures++
	}
	p.mu.Unlock()
	rec := record{Key: jr.Key, Schema: SchemaVersion, Model: sim.ModelVersion, Config: jr.Job.Config.Name,
		Trace: jr.Job.traceLabel(), Warmup: jr.Job.Warmup, Measure: jr.Job.Measure, Result: jr.Result}
	release(&outcome{rec: rec, err: jr.Err})
	return jr
}

// recoverRun invokes run, converting a panic into an error so one bad
// configuration cannot take down the process.
func recoverRun(run func(Job, sim.ProgressFunc) (sim.Result, error), job Job, hook sim.ProgressFunc) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(job, hook)
}

// simulate is the real job body: resolve the workload stream (a
// generator walk for synthetic profiles, a cursor over the shared arena
// for recorded files — one fresh stream per job or interval), apply the
// instruction budgets, and run the machine — serially, or through the
// interval executor when Job.Segments > 1 — with warm-checkpoint reuse
// when the pool has a store.
func (p *Pool) simulate(job Job, hook sim.ProgressFunc) (sim.Result, error) {
	cfg := job.runConfig()
	budget := int(cfg.WarmupInsts+cfg.MeasureInsts) + 200_000

	var (
		newSource func() trace.Source
		code      core.CodeInfo
		traceID   string
	)
	if job.TraceFile != "" {
		a, err := p.FileArena(job.TraceFile)
		if err != nil {
			return sim.Result{}, err
		}
		newSource = func() trace.Source { return a.Cursor() }
		traceID = "file:" + a.ID()
	} else {
		prog, err := p.Program(job.Profile)
		if err != nil {
			return sim.Result{}, err
		}
		code = prog
		pk, err := profileKey(job.Profile)
		if err != nil {
			return sim.Result{}, err
		}
		// The warm-checkpoint trace identity deliberately excludes the
		// budget: the stream prefix a checkpoint replays is independent
		// of where the run's limit lies.
		traceID = "profile:" + pk
		newSource = func() trace.Source { return trace.NewLimit(trace.NewWalker(prog), budget) }
	}
	if job.Segments > 1 {
		return tpar.Run(cfg, newSource, code, job.traceLabel(), tpar.Options{
			Segments:    job.Segments,
			Workers:     p.workers(),
			Checkpoints: p.ckpts,
			TraceID:     traceID,
			Gate:        p.segGate,
			Hook:        hook,
		})
	}
	var wc *sim.WarmCheckpoints
	if p.ckpts != nil {
		wc = &sim.WarmCheckpoints{Store: p.ckpts, TraceID: traceID}
	}
	return sim.RunHooked(cfg, newSource(), code, job.traceLabel(), wc, hook)
}

// noteProgress emits a progress/ETA line roughly every 5% of the batch
// (and at the end). Progress is observability only — it goes to the
// injected writer, never the report, and needs no determinism. Workers
// call it concurrently; the whole body runs under p.mu.
//
//ucplint:guarded
func (p *Pool) noteProgress(total int) {
	if p.opts.Progress == nil || total == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	stride := total / 20
	if stride < 1 {
		stride = 1
	}
	if p.done != total && p.done%stride != 0 {
		return
	}
	line := fmt.Sprintf("runq: %d/%d jobs (%.0f%%)", p.done, total, 100*float64(p.done)/float64(total))
	if p.opts.Clock != nil {
		elapsed := p.opts.Clock()
		line += fmt.Sprintf(" elapsed %s", elapsed.Round(100*time.Millisecond))
		if p.done < total && p.done > 0 {
			eta := time.Duration(float64(elapsed) / float64(p.done) * float64(total-p.done))
			line += fmt.Sprintf(" eta %s", eta.Round(100*time.Millisecond))
		}
	}
	fmt.Fprintln(p.opts.Progress, line)
}
