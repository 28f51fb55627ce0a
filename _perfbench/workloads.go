package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ucp/internal/core"
	"ucp/internal/harness"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/sweepd"
	"ucp/internal/sweepd/client"
	"ucp/internal/trace"
)

// Instruction budgets. Each round of every workload runs for a few
// seconds on two workers, so the median over a run's rounds is steady;
// NOTES.md records how they were sized.
const (
	fullWarmup, fullMeasure = 400_000, 600_000

	ablationWarmup        = 1_000_000
	ablationCryptoMeasure = 6 * 833_000 // six FastSampling periods
	ablationSrvMeasure    = 6 * 500_000 // six ConservativeSampling periods

	parWarmup, parMeasure = 400_000, 4_000_000
	parWindows            = 10
)

// workload is one benchmark workload: its batch, the pool or server a
// round builds fresh, and how a round submits the batch.
type workload struct {
	name string
	// batch builds the workload's jobs for the seed.
	batch func(b *bench) []runq.Job
	// server routes the batch through a loopback sweepd server; pool
	// configures the pool (the server's, when server is set).
	server bool
	pool   runq.Options
	// submit sends the batch through env and waits for every result;
	// o is non-nil in traced rounds.
	submit func(b *bench, e *env, jobs []runq.Job, o *layerObs) []runq.JobResult
	// refJobs are the full-detail (and same-mode baseline) runs behind
	// the accuracy metrics; accuracy combines them with the batch's
	// results. Both are nil for full-pairs, which is its own reference.
	refJobs  func(jobs []runq.Job) map[string]runq.Job
	accuracy func(res []runq.JobResult, refs map[string]sim.Result) accuracy

	jobs        []runq.Job
	lastResults []runq.JobResult
}

var workloads = map[string]*workload{
	"full-pairs": {
		name:   "full-pairs",
		batch:  fullPairsBatch,
		pool:   runq.Options{Workers: workers},
		submit: submitPool(workers),
	},
	"sampled-ablation": {
		name:     "sampled-ablation",
		batch:    ablationBatch,
		server:   true,
		pool:     runq.Options{Workers: workers, UseArena: true, Checkpoints: true},
		submit:   submitServer,
		refJobs:  ablationRefs,
		accuracy: ablationAccuracy,
	},
	"parallel-modes": {
		name:     "parallel-modes",
		batch:    parallelBatch,
		pool:     runq.Options{Workers: workers, Checkpoints: true},
		submit:   submitPool(1),
		refJobs:  parallelRefs,
		accuracy: parallelAccuracy,
	},
}

// ucpConfig is the paper's UCP configuration.
func ucpConfig() sim.Config { return sim.WithUCP(core.DefaultConfig()) }

// fullPairsBatch: full-detail baseline/UCP pairs over traces spanning
// the code footprint, datacenter (srv207, srv203) to small (crypto01).
// Longest jobs go first, so two workers finish the batch together and
// the round time does not hinge on which worker drew the last long job.
func fullPairsBatch(b *bench) []runq.Job {
	var jobs []runq.Job
	for _, tr := range []string{"srv207", "srv203", "int03", "crypto01"} {
		for _, cfg := range []sim.Config{sim.Baseline(), ucpConfig()} {
			jobs = append(jobs, newJob(cfg, b.profile(tr), fullWarmup, fullMeasure))
		}
	}
	return jobs
}

// ablationBatch: a sampled UCP ablation per trace — baseline, the UCP
// default, two stop thresholds, the L1I-only variant and an adaptive
// probe — all sharing one warm checkpoint per warm key.
func ablationBatch(b *bench) []runq.Job {
	type traceGeom struct {
		name    string
		geom    sim.SamplingConfig
		measure uint64
	}
	var jobs []runq.Job
	for _, t := range []traceGeom{
		{"crypto01", sim.FastSampling(), ablationCryptoMeasure},
		{"srv203", sim.ConservativeSampling(), ablationSrvMeasure},
	} {
		adaptive := ucpConfig()
		adaptive.Name = "UCP-adaptive"
		adaptive.Sampling = t.geom
		adaptive.Sampling.TargetCI = 0.1
		adaptive.Sampling.MinWindows = 4
		cfgs := []sim.Config{
			sim.Baseline(), ucpConfig(),
			harness.UCPThreshold(250, false), harness.UCPThreshold(1000, false),
			harness.UCPThreshold(500, true),
		}
		for i := range cfgs {
			cfgs[i].Sampling = t.geom
		}
		for _, cfg := range append(cfgs, adaptive) {
			jobs = append(jobs, newJob(cfg, b.profile(t.name), ablationWarmup, t.measure))
		}
	}
	return jobs
}

// parallelSampling is the window-parallel job's geometry, that of the
// repository's window-parallel gate: the conservative warming posture
// with parWindows periods and a 20K detailed warm per window.
func parallelSampling() sim.SamplingConfig {
	s := sim.ConservativeSampling()
	s.PeriodInsts = parMeasure / parWindows
	s.WarmInsts = 20_000
	return s
}

// parallelBatch: one long srv203 UCP run time-parallel at full detail,
// then the same region window-parallel sampled.
func parallelBatch(b *bench) []runq.Job {
	tp := ucpConfig()
	tp.Name = "UCP-tpar"
	wp := ucpConfig()
	wp.Name = "UCP-wpar"
	wp.Sampling = parallelSampling()
	prof := b.profile("srv203")
	jobs := []runq.Job{newJob(tp, prof, parWarmup, parMeasure), newJob(wp, prof, parWarmup, parMeasure)}
	for i := range jobs {
		jobs[i].Segments = workers
	}
	return jobs
}

// newJob sets the budgets on the job and on its config alike: the
// sweepd server validates the config as sent.
func newJob(cfg sim.Config, prof trace.Profile, warmup, measure uint64) runq.Job {
	cfg.WarmupInsts, cfg.MeasureInsts = warmup, measure
	return runq.Job{Config: cfg, Profile: prof, Warmup: warmup, Measure: measure}
}

// env is one round's freshly built set-up: a pool, or a loopback sweepd
// server with a client.
type env struct {
	pool *runq.Pool

	srv    *sweepd.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	cl     *client.Client
}

// newEnv builds the round's pool or server and every program the batch
// needs; this is what setup_s times.
func newEnv(w *workload, jobs []runq.Job) (*env, error) {
	e := &env{}
	if w.server {
		start := time.Now()
		e.srv = sweepd.New(sweepd.Config{Pool: w.pool, Clock: func() time.Duration { return time.Since(start) }})
		e.pool = e.srv.Pool()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.srv.Shutdown(nil)
			return nil, err
		}
		e.hs = &http.Server{Handler: e.srv.Handler()}
		e.served = make(chan struct{})
		go func() {
			defer close(e.served)
			e.hs.Serve(ln)
		}()
		e.tr = &http.Transport{}
		e.cl = client.New("http://" + ln.Addr().String())
		e.cl.HTTP = &http.Client{Transport: e.tr}
	} else {
		e.pool = runq.New(w.pool)
	}
	for _, j := range jobs {
		if _, err := e.pool.Program(j.Profile); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// close stops the server, if any, and waits for it.
func (e *env) close() {
	if e.srv == nil {
		return
	}
	e.srv.Shutdown(nil)
	e.hs.Close()
	<-e.served
	e.tr.CloseIdleConnections()
}

// roundResult is one round's timings.
type roundResult struct {
	wall   time.Duration
	insts  uint64  // Σ Warmup+Measure over the batch
	peakMB float64 // peak resident memory while the round ran
}

func (w *workload) batchFor(b *bench) []runq.Job {
	if w.jobs == nil {
		w.jobs = w.batch(b)
	}
	return w.jobs
}

// setupOnly times one set-up and tears it down.
func (w *workload) setupOnly(b *bench) (time.Duration, error) {
	jobs := w.batchFor(b)
	t0 := time.Now()
	e, err := newEnv(w, jobs)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	e.close()
	return d, nil
}

// round builds a fresh set-up, submits the batch, waits for every
// result and checks it.
func (w *workload) round(b *bench, o *layerObs) (roundResult, error) {
	jobs := w.batchFor(b)
	mem := startMemSampler()
	e, err := newEnv(w, jobs)
	if err != nil {
		mem.peakMB()
		return roundResult{}, err
	}
	t1 := time.Now()
	res := w.submit(b, e, jobs, o)
	wall := time.Since(t1)
	peak := mem.peakMB()
	if o != nil {
		o.runq = e.pool.Stats()
		o.captured, o.restored = e.pool.CheckpointStats()
	}
	e.close()

	var insts uint64
	for _, j := range jobs {
		insts += j.Warmup + j.Measure
	}
	for i, jr := range res {
		b.check(jobLabel(w.name, jobs[i%len(jobs)]), jr)
	}
	w.lastResults = res[:len(jobs)]
	return roundResult{wall: wall, insts: insts, peakMB: peak}, nil
}

// submitPool submits through the pool as RunOne calls from conc client
// goroutines, each job with its own span and progress hook when traced.
// Parallel-modes uses conc 1: its runs are sequential, each one
// parallel inside the pool.
func submitPool(conc int) func(b *bench, e *env, jobs []runq.Job, o *layerObs) []runq.JobResult {
	return func(b *bench, e *env, jobs []runq.Job, o *layerObs) []runq.JobResult {
		return runPool(b, e.pool, jobs, o, conc)
	}
}

// spansFor is the span log a round records into: none when untraced.
func (b *bench) spansFor(o *layerObs) *spanLog {
	if o == nil {
		return nil
	}
	return b.spans
}

func runPool(b *bench, pool *runq.Pool, jobs []runq.Job, o *layerObs, conc int) []runq.JobResult {
	l := b.spansFor(o)
	res := make([]runq.JobResult, len(jobs))
	root, endRoot := l.begin("runq.batch", 0, "")
	submitted := l.now()
	idx := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < conc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if o == nil {
					res[i] = pool.RunOne(jobs[i], nil)
					continue
				}
				jt := &jobTrace{}
				start := l.now()
				jr := pool.RunOne(jobs[i], jt.hook(l))
				end := l.now()
				res[i] = jr
				mu.Lock()
				jt.record(l, o, root, jr.Key, submitted, start, end)
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	endRoot()
	return res
}

// submitServer sends the batch to the sweepd server, waits for every
// job, then resubmits the identical batch, which must come back
// byte-identical (all coalesced onto finished jobs). It returns both
// passes' results.
func submitServer(b *bench, e *env, jobs []runq.Job, o *layerObs) []runq.JobResult {
	first, second := serverPass(b, e, jobs, o, false), serverPass(b, e, jobs, o, true)
	if o != nil {
		if st, err := e.cl.Statz(); err == nil {
			o.coalesced = st.JobsCoalesced
		}
		o.events++ // the statz call
	}
	for i := range second {
		if second[i].Err == nil && first[i].Err == nil && !sameResult(first[i].Result, second[i].Result) {
			second[i].Err = fmt.Errorf("resubmitted result differs from the first pass")
		}
	}
	return append(first, second...)
}

// serverPass does what client.RunAll does for a batch without
// duplicates — one Submit, then a Wait per job in submission order —
// and, when traced, turns the calls and each job's events into spans.
func serverPass(b *bench, e *env, jobs []runq.Job, o *layerObs, resubmit bool) []runq.JobResult {
	l := b.spansFor(o)
	res := make([]runq.JobResult, len(jobs))
	specs := make([]sweepd.JobSpec, len(jobs))
	for i, j := range jobs {
		spec, err := sweepd.Spec(j)
		if err != nil {
			for k := range res {
				res[k].Err = err
			}
			return res
		}
		specs[i] = spec
	}
	name := "sweepd.pass"
	if resubmit {
		name = "sweepd.resubmit"
	}
	root, endRoot := l.begin(name, 0, "")
	defer endRoot()
	t0 := l.now()
	ids, err := e.cl.Submit(specs)
	t1 := l.now()
	if o != nil {
		l.add("sweepd.Submit", root, "", t0, t1)
		o.events++
		ms := float64(t1-t0) / 1e6
		if resubmit {
			o.resubmitMs = append(o.resubmitMs, ms)
		} else {
			o.submitMs = append(o.submitMs, ms)
		}
	}
	for i := range res {
		res[i].Job = jobs[i]
		if err != nil {
			res[i].Err = err
			continue
		}
		res[i].Key = ids[i]
		jt := &jobTrace{}
		var queued time.Duration = -1
		var onEvent func(sweepd.Event)
		if o != nil {
			onEvent = func(ev sweepd.Event) {
				o.events++
				at := t1 + time.Duration(ev.ElapsedMS)*time.Millisecond
				if ev.State == sweepd.StateQueued {
					queued = at
					return
				}
				jt.observe(at, ev.State, ev.WindowsDone)
			}
		}
		start := l.now()
		st, werr := e.cl.Wait(ids[i], onEvent)
		end := l.now()
		switch {
		case werr != nil:
			res[i].Err = werr
		case st.Err != "":
			res[i].Err = fmt.Errorf("%s", st.Err)
		case st.Result == nil:
			res[i].Err = fmt.Errorf("job %.12s reported %s with no result", ids[i], st.State)
		default:
			res[i].Result = *st.Result
			res[i].Source = st.Source
			res[i].Attempts = st.Attempts
		}
		if o == nil {
			continue
		}
		o.events++ // the status fetch that closes Wait
		o.eventJobs++
		id := l.add("sweepd.Wait", root, ids[i], start, end)
		if !resubmit && queued >= 0 && jt.first > 0 {
			jt.record(l, o, id, ids[i], queued, jt.first, jt.lastAt)
		}
	}
	return res
}

// sameResult reports whether two results serialize byte-identically.
func sameResult(a, b sim.Result) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}

// jobTrace collects one job's progress instants.
type jobTrace struct {
	mu                       sync.Mutex
	first, measuring, lastAt time.Duration
	windows                  []time.Duration // instants at which a measured window completed
	done                     int
}

func (jt *jobTrace) hook(l *spanLog) sim.ProgressFunc {
	return func(p sim.Progress) { jt.observe(l.now(), p.Stage, p.WindowsDone) }
}

func (jt *jobTrace) observe(at time.Duration, stage string, windowsDone int) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.first == 0 {
		jt.first = at
	}
	if stage != sim.StageWarming && jt.measuring == 0 {
		jt.measuring = at
	}
	if windowsDone > jt.done {
		jt.windows = append(jt.windows, at)
		jt.done = windowsDone
	}
	jt.lastAt = at
}

// record turns the job's instants into spans (client queue, set-up
// inside the pool, warm stage, measure stage) and per-layer samples.
func (jt *jobTrace) record(l *spanLog, o *layerObs, parent int, key string, submitted, start, end time.Duration) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	job := key
	if len(job) > 12 {
		job = job[:12]
	}
	id := l.add("job", parent, job, submitted, end)
	l.add("queue", id, job, submitted, start)
	o.queueMs = append(o.queueMs, float64(start-submitted)/1e6)
	if jt.first == 0 {
		return // served from a cache: no stages ran
	}
	l.add("sim.setup", id, job, start, jt.first)
	measuring := jt.measuring
	if measuring == 0 {
		measuring = end
	}
	l.add("sim.warm", id, job, jt.first, measuring)
	l.add("sim.measure", id, job, measuring, end)
	o.warm += measuring - jt.first
	o.measure += end - measuring
	prev := measuring
	for _, t := range jt.windows {
		if t > prev {
			o.windowMs = append(o.windowMs, float64(t-prev)/1e6)
		}
		prev = t
	}
}

// layerObs holds one traced round's per-layer observations.
type layerObs struct {
	warm, measure time.Duration
	windowMs      []float64
	queueMs       []float64

	runq               runq.Stats
	captured, restored int

	submitMs, resubmitMs []float64
	coalesced            int
	events, eventJobs    int
}

// summarizeObs reduces the traced rounds' observations to metrics:
// medians across rounds, pooled medians for per-window and per-job
// samples.
func summarizeObs(obs []*layerObs, vals map[string]float64) {
	var warm, meas, runs, memo, retries, failures, capt, rest, hit, sub, resub, coal, epj, windows, queue []float64
	for _, o := range obs {
		warm = append(warm, o.warm.Seconds())
		meas = append(meas, o.measure.Seconds())
		windows = append(windows, o.windowMs...)
		queue = append(queue, o.queueMs...)
		runs = append(runs, float64(o.runq.Runs))
		memo = append(memo, float64(o.runq.MemoHits))
		retries = append(retries, float64(o.runq.Retries))
		failures = append(failures, float64(o.runq.Failures))
		capt = append(capt, float64(o.captured))
		rest = append(rest, float64(o.restored))
		if o.captured+o.restored > 0 {
			hit = append(hit, float64(o.restored)/float64(o.captured+o.restored))
		}
		sub = append(sub, o.submitMs...)
		resub = append(resub, o.resubmitMs...)
		coal = append(coal, float64(o.coalesced))
		if o.eventJobs > 0 {
			epj = append(epj, float64(o.events)/float64(o.eventJobs))
		}
	}
	vals["sim.warm_stage_s"] = median(warm)
	vals["sim.measure_stage_s"] = median(meas)
	vals["sim.window_ms_p50"] = median(windows)
	vals["runq.runs"] = median(runs)
	vals["runq.memo_hits"] = median(memo)
	vals["runq.retries"] = median(retries)
	vals["runq.failures"] = median(failures)
	vals["runq.queue_wait_ms_p50"] = median(queue)
	vals["ckpt.captures"] = median(capt)
	vals["ckpt.restores"] = median(rest)
	vals["ckpt.hit_ratio"] = median(hit)
	vals["sweepd.submit_ms_p50"] = median(sub)
	vals["sweepd.resubmit_ms_p50"] = median(resub)
	vals["sweepd.coalesced"] = median(coal)
	vals["sweepd.events_per_job"] = median(epj)
}

// modelledCounters reports simulated-machine statistics of the
// workload's results; a host-speed change must leave them identical.
func modelledCounters(res []runq.JobResult, vals map[string]float64) {
	var hit, mpki, spki, acc []float64
	var l1iMiss, insts, skipped, ff, detailed uint64
	for _, jr := range res {
		r := jr.Result
		hit = append(hit, r.UopHitRate)
		mpki = append(mpki, r.CondMPKI)
		spki = append(spki, r.SwitchPKI)
		if jr.Job.Config.UCP != nil {
			acc = append(acc, r.PrefetchAccuracy)
		}
		l1iMiss += r.L1I.Misses
		insts += jr.Job.Warmup + jr.Job.Measure
		if s := r.Sampled; s != nil {
			skipped, ff, detailed = skipped+s.SkippedInsts, ff+s.FFInsts, detailed+s.DetailedInsts
		} else if t := r.TimePar; t != nil {
			skipped, ff = skipped+t.SkippedInsts, ff+t.FFInsts
			detailed += r.Insts
		} else {
			detailed += jr.Job.Warmup + jr.Job.Measure
		}
	}
	vals["uopcache.hit_rate"] = mean(hit)
	vals["bpred.cond_mpki"] = mean(mpki)
	vals["frontend.switch_pki"] = mean(spki)
	vals["ucp.prefetch_accuracy"] = mean(acc)
	if insts > 0 {
		vals["l1i.mpki"] = float64(l1iMiss) / float64(insts) * 1000
	}
	vals["sim.skipped_minsts"] = float64(skipped) / 1e6
	vals["sim.ff_minsts"] = float64(ff) / 1e6
	vals["sim.detailed_minsts"] = float64(detailed) / 1e6
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// accuracy is an approximate mode's error against full detail.
type accuracy struct {
	ipcErr, speedupErr float64
}

// references runs (or loads from the on-disk result cache) the
// reference jobs outside the timed region. The cache is runq's own: its keys
// cover the seed (through the profile), sim.ModelVersion, the config
// and the budget, so a fresh seed just computes its references once.
func (b *bench) references(w *workload) (map[string]sim.Result, error) {
	if w.refJobs == nil {
		return nil, nil
	}
	refs := w.refJobs(w.batchFor(b))
	labels := make([]string, 0, len(refs))
	for k := range refs {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	jobs := make([]runq.Job, len(labels))
	for i, k := range labels {
		jobs[i] = refs[k]
	}
	pool := runq.New(runq.Options{Workers: workers, CacheDir: filepath.Join(b.stateDir, "refcache")})
	out := map[string]sim.Result{}
	for i, jr := range pool.RunAll(jobs) {
		if jr.Err != nil {
			return nil, fmt.Errorf("reference %s: %w", labels[i], jr.Err)
		}
		out[labels[i]] = jr.Result
	}
	return out, nil
}

// fullDetail is the serial full-detail reference of an approximate job.
func fullDetail(j runq.Job) runq.Job {
	j.Config.Sampling = sim.SamplingConfig{}
	j.Segments = 0
	j.Boundary = sim.BoundaryWarm{}
	return j
}

// ablationRefs: full-detail baseline and UCP per trace — the paired
// speedup the paper reports. Threshold variants have no reference.
func ablationRefs(jobs []runq.Job) map[string]runq.Job {
	refs := map[string]runq.Job{}
	for _, j := range jobs {
		if n := j.Config.Name; n == "baseline" || n == "UCP" {
			refs["full/"+j.Profile.Name+"/"+n] = fullDetail(j)
		}
	}
	return refs
}

func ablationAccuracy(res []runq.JobResult, refs map[string]sim.Result) accuracy {
	var ipcs []pairIPC
	var pairs []pairedSpeedup
	base := map[string]float64{}
	for _, jr := range res {
		if jr.Job.Config.Name == "baseline" {
			base[jr.Job.Profile.Name] = jr.Result.IPC
		}
	}
	for _, jr := range res {
		tr, name := jr.Job.Profile.Name, jr.Job.Config.Name
		refName := name
		if name == "UCP-adaptive" {
			refName = "UCP"
		}
		full, ok := refs["full/"+tr+"/"+refName]
		if !ok {
			continue
		}
		ipcs = append(ipcs, pairIPC{approx: jr.Result.IPC, full: full.IPC})
		notePair(jr, full.IPC)
		if refName == "UCP" {
			fb := refs["full/"+tr+"/baseline"]
			pairs = append(pairs, pairedSpeedup{
				base: pairIPC{approx: base[tr], full: fb.IPC},
				ucp:  pairIPC{approx: jr.Result.IPC, full: full.IPC},
			})
		}
	}
	return accuracy{ipcErr: ipcErrPct(ipcs), speedupErr: speedupErrPP(pairs)}
}

// parallelRefs: full-detail UCP and baseline over the same region, and
// the baseline in each parallel mode for the paired speedup.
func parallelRefs(jobs []runq.Job) map[string]runq.Job {
	refs := map[string]runq.Job{}
	for _, j := range jobs {
		full := fullDetail(j)
		full.Config.Name = "UCP"
		refs["full/UCP"] = full
		bfull := full
		bfull.Config = baselineLike(full.Config)
		refs["full/baseline"] = bfull
		mode := j
		mode.Config = baselineLike(j.Config)
		mode.Config.Name = "baseline-" + j.Config.Name
		refs["mode/"+j.Config.Name] = mode
	}
	return refs
}

// baselineLike is the baseline machine with cfg's budgets and sampling.
func baselineLike(cfg sim.Config) sim.Config {
	b := sim.Baseline()
	b.WarmupInsts, b.MeasureInsts, b.Sampling = cfg.WarmupInsts, cfg.MeasureInsts, cfg.Sampling
	return b
}

func parallelAccuracy(res []runq.JobResult, refs map[string]sim.Result) accuracy {
	full, fullBase := refs["full/UCP"], refs["full/baseline"]
	var ipcs []pairIPC
	var pairs []pairedSpeedup
	for _, jr := range res {
		ipcs = append(ipcs, pairIPC{approx: jr.Result.IPC, full: full.IPC})
		notePair(jr, full.IPC)
		pairs = append(pairs, pairedSpeedup{
			base: pairIPC{approx: refs["mode/"+jr.Job.Config.Name].IPC, full: fullBase.IPC},
			ucp:  pairIPC{approx: jr.Result.IPC, full: full.IPC},
		})
	}
	return accuracy{ipcErr: ipcErrPct(ipcs), speedupErr: speedupErrPP(pairs)}
}

// notePair prints one approximate IPC next to its full-detail reference.
func notePair(jr runq.JobResult, full float64) {
	fmt.Fprintf(os.Stderr, "perfbench: accuracy %s/%s: IPC %.5f, full detail %.5f\n",
		jr.Job.Profile.Name, jr.Job.Config.Name, jr.Result.IPC, full)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
