package main

import (
	"fmt"
	"time"

	"ucp/internal/bpred"
	"ucp/internal/btb"
	"ucp/internal/cache"
	"ucp/internal/ckpt"
	"ucp/internal/isa"
	"ucp/internal/ittage"
	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/tpar"
	"ucp/internal/trace"
	"ucp/internal/uopcache"
)

// This file holds the traced run's per-layer replays: each times the
// benchmark's own calls into one package's public API, fed with the
// workload's own traces, configs and instruction stream.

const (
	replayInsts = 400_000 // per trace, for the component replays
	stepCycles  = 200_000 // per trace, for sim.step_ns_per_cycle
	replayReps  = 3
)

// layers fills the per-layer metrics that come from replays rather than
// from the traced rounds.
func (b *bench) layers(w *workload, vals map[string]float64) error {
	jobs := w.batchFor(b)
	var profs []trace.Profile
	seen := map[string]bool{}
	budget := 0
	for _, j := range jobs {
		if !seen[j.Profile.Name] {
			seen[j.Profile.Name] = true
			profs = append(profs, j.Profile)
		}
		// The slack past the budget is runq's: the frontend fetches
		// ahead of the last committed instruction.
		budget = max(budget, int(j.Warmup+j.Measure)+200_000)
	}

	// trace: program build, generator walk, arena build and skip.
	var buildMs []float64
	progs := map[string]*trace.Program{}
	for r := 0; r < replayReps; r++ {
		t := time.Now()
		for _, p := range profs {
			prog, err := trace.BuildProgram(p)
			if err != nil {
				return err
			}
			progs[p.Name] = prog
		}
		buildMs = append(buildMs, ms(time.Since(t)))
	}
	vals["trace.build_program_ms"] = median(buildMs)
	arenas := map[string]*trace.Arena{}
	var walk, build, skip time.Duration
	var bytes, insts int
	for _, p := range profs {
		t := time.Now()
		wk := trace.NewWalker(progs[p.Name])
		buf := make([]isa.Inst, 256)
		for n := 0; n < budget; {
			n += wk.NextBatch(buf)
		}
		walk += time.Since(t)

		t = time.Now()
		a := trace.ArenaFromSource(trace.NewLimit(trace.NewWalker(progs[p.Name]), budget), budget)
		build += time.Since(t)
		arenas[p.Name] = a
		bytes, insts = bytes+a.Bytes(), insts+a.Len()

		t = time.Now()
		if got := a.Cursor().SkipWarm(a.Len(), noopWarmer{}); got != a.Len() {
			return fmt.Errorf("arena skip covered %d of %d instructions", got, a.Len())
		}
		skip += time.Since(t)
	}
	n := float64(budget * len(profs))
	vals["trace.walk_minsts_per_s"] = n / walk.Seconds() / 1e6
	vals["trace.arena_build_s"] = build.Seconds()
	vals["trace.arena_bytes_per_inst"] = float64(bytes) / float64(insts)
	vals["trace.skip_minsts_per_s"] = n / skip.Seconds() / 1e6

	// sim: machine construction per config, cycle stepping per trace.
	var newMs []float64
	for _, j := range jobs {
		for r := 0; r < replayReps; r++ {
			t := time.Now()
			sim.NewMachine(j.Config, arenas[j.Profile.Name].Cursor(), progs[j.Profile.Name])
			newMs = append(newMs, ms(time.Since(t)))
		}
	}
	vals["sim.new_machine_ms"] = median(newMs)
	var step time.Duration
	for _, p := range profs {
		m := sim.NewMachine(ucpConfig(), arenas[p.Name].Cursor(), progs[p.Name])
		t := time.Now()
		for c := 0; c < stepCycles; c++ {
			m.Step()
		}
		step += time.Since(t)
	}
	vals["sim.step_ns_per_cycle"] = float64(step.Nanoseconds()) / float64(stepCycles*len(profs))

	// Components: the workload's stream replayed into each public API.
	var streams [][]isa.Inst
	for _, p := range profs {
		s := make([]isa.Inst, replayInsts)
		s = s[:arenas[p.Name].Cursor().NextBatch(s)]
		streams = append(streams, s)
	}
	for name, replay := range map[string]func([]isa.Inst) (time.Duration, int){
		"bpred.predict_update_ns":  replayBpred,
		"ittage.predict_update_ns": replayITTAGE,
		"btb.lookup_ns":            replayBTB,
		"uopcache.lookup_ns":       replayUopLookup,
		"uopcache.insert_ns":       replayUopInsert,
		"cache.fetch_inst_ns":      replayFetch,
		"cache.load_ns":            replayLoad,
	} {
		var reps []float64
		for r := 0; r < replayReps; r++ {
			var d time.Duration
			ops := 0
			for _, s := range streams {
				dd, n := replay(s)
				d, ops = d+dd, ops+n
			}
			reps = append(reps, float64(d.Nanoseconds())/float64(max(ops, 1)))
		}
		vals[name] = median(reps)
	}

	// ckpt: capture then restore of one boundary of the workload's
	// largest trace, with a short measured span so the warm dominates.
	bj := largestTraceJob(jobs)
	cfg, spec, warm := boundaryOf(bj)
	store := ckpt.NewStore("")
	wc := &sim.WarmCheckpoints{Store: store, TraceID: "bench:" + bj.Profile.Name}
	prog, a := progs[bj.Profile.Name], arenas[bj.Profile.Name]
	for i, name := range []string{"ckpt.capture_s", "ckpt.restore_s"} {
		t := time.Now()
		if _, err := sim.RunSegment(cfg, a.Cursor(), prog, spec, warm, wc); err != nil {
			return fmt.Errorf("%s replay: %w", name, err)
		}
		vals[name] = time.Since(t).Seconds()
		if i == 0 && store.Len() != 1 {
			return fmt.Errorf("checkpoint replay captured %d blobs, want 1", store.Len())
		}
	}
	if store.Hits() != 1 {
		return fmt.Errorf("checkpoint replay restored %d times, want 1", store.Hits())
	}
	blob, _, _ := store.Acquire(sim.BoundaryKey(cfg, wc.TraceID, spec.Start, warm))
	vals["ckpt.blob_kb"] = float64(len(blob)) / 1024

	for _, k := range []string{"tpar.speedup_vs_serial", "tpar.segment_skew", "wpar.speedup_vs_chain", "wpar.window_warm_s", "wpar.window_measure_s"} {
		vals[k] = 0
	}
	if w.name == "parallel-modes" {
		return b.parallelLayers(jobs, progs, arenas, vals)
	}
	return nil
}

// largestTraceJob picks the job whose boundary the checkpoint replay
// uses: the last job on the workload's largest trace.
func largestTraceJob(jobs []runq.Job) runq.Job {
	best := jobs[0]
	for _, j := range jobs {
		if j.Profile.Funcs*j.Profile.AvgFuncInsts >= best.Profile.Funcs*best.Profile.AvgFuncInsts {
			best = j
		}
	}
	return best
}

// boundaryOf maps a job to one segment boundary: the first window of a
// sampled job (with its geometry's boundary warm), otherwise the second
// segment of a two-way split under the default boundary warm. The span
// is cut to 2000 instructions.
func boundaryOf(j runq.Job) (sim.Config, sim.SegmentSpec, sim.BoundaryWarm) {
	cfg := j.Config
	cfg.WarmupInsts, cfg.MeasureInsts = j.Warmup, j.Measure
	var spec sim.SegmentSpec
	warm := sim.DefaultBoundaryWarm()
	if cfg.Sampling.Enabled {
		spec = cfg.SampleWindows()[0]
		warm = cfg.Sampling.BoundaryWarm()
		cfg.Sampling = sim.SamplingConfig{}
	} else {
		spec = tpar.Plan(j.Warmup, j.Measure, 2)[1]
	}
	spec.End = spec.Start + 2000
	return cfg, spec, warm
}

// parallelLayers measures the parallel executors against their serial
// counterparts and replays their units one at a time.
func (b *bench) parallelLayers(jobs []runq.Job, progs map[string]*trace.Program, arenas map[string]*trace.Arena, vals map[string]float64) error {
	// Serial counterparts, arranged like a round: a fresh pool, the
	// full-detail run first, then the sampled chain; the parallel runs
	// are timed the same way.
	timePair := func(pair []runq.Job) ([]float64, error) {
		pool := runq.New(runq.Options{Workers: workers, Checkpoints: true})
		var out []float64
		for _, j := range pair {
			t := time.Now()
			if jr := pool.RunOne(j, nil); jr.Err != nil {
				return nil, jr.Err
			}
			out = append(out, time.Since(t).Seconds())
		}
		return out, nil
	}
	serial := []runq.Job{jobs[0], jobs[1]}
	for i := range serial {
		serial[i].Segments = 0
	}
	st, err := timePair(serial)
	if err != nil {
		return err
	}
	pt, err := timePair(jobs)
	if err != nil {
		return err
	}
	vals["tpar.speedup_vs_serial"] = st[0] / pt[0]
	vals["wpar.speedup_vs_chain"] = st[1] / pt[1]

	// tpar: every planned segment through RunSegment, one at a time.
	tj := jobs[0]
	cfg := tj.Config
	cfg.WarmupInsts, cfg.MeasureInsts = tj.Warmup, tj.Measure
	prog, a := progs[tj.Profile.Name], arenas[tj.Profile.Name]
	var segs []float64
	for _, spec := range tpar.Plan(tj.Warmup, tj.Measure, tj.Segments) {
		t := time.Now()
		if _, err := sim.RunSegment(cfg, a.Cursor(), prog, spec, sim.DefaultBoundaryWarm(), nil); err != nil {
			return err
		}
		segs = append(segs, time.Since(t).Seconds())
	}
	mx := 0.0
	for _, s := range segs {
		mx = max(mx, s)
	}
	vals["tpar.segment_skew"] = mx / mean(segs)

	// wpar: first, middle and last window, each run whole and with a
	// minimal measured span; the difference is the window's measure.
	wj := jobs[1]
	wcfg := wj.Config
	wcfg.WarmupInsts, wcfg.MeasureInsts = wj.Warmup, wj.Measure
	specs := wcfg.SampleWindows()
	bw := wcfg.Sampling.BoundaryWarm()
	wcfg.Sampling = sim.SamplingConfig{}
	var warmS, measS []float64
	for _, k := range []int{0, len(specs) / 2, len(specs) - 1} {
		short := specs[k]
		short.End = short.Start + 1
		var d [2]float64
		for i, spec := range []sim.SegmentSpec{short, specs[k]} {
			t := time.Now()
			if _, err := sim.RunSegment(wcfg, a.Cursor(), prog, spec, bw, nil); err != nil {
				return err
			}
			d[i] = time.Since(t).Seconds()
		}
		warmS = append(warmS, d[0])
		measS = append(measS, max(d[1]-d[0], 0))
	}
	vals["wpar.window_warm_s"] = mean(warmS)
	vals["wpar.window_measure_s"] = mean(measS)
	return nil
}

// noopWarmer takes the warming skip's callbacks and drops them, so the
// skip replay times the trace side alone (the cache and predictor side
// shows in the component replays).
type noopWarmer struct{}

func (noopWarmer) WarmFetch(uint64)      {}
func (noopWarmer) WarmMem(uint64)        {}
func (noopWarmer) WarmCond(uint64, bool) {}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// The component replays below each return the time spent and the
// number of calls it covers (loop overhead included).

func replayBpred(s []isa.Inst) (time.Duration, int) {
	t := bpred.NewTageSCL(bpred.Config64KB())
	n := 0
	start := time.Now()
	for i := range s {
		in := &s[i]
		switch {
		case in.Class == isa.CondBranch:
			p := t.Predict(t.Hist(), in.PC)
			t.Update(in.PC, in.Taken, &p)
			t.PushHistory(in.PC, in.Taken)
			n++
		case in.Class.IsBranch():
			t.PushHistory(in.PC, true)
		}
	}
	return time.Since(start), n
}

func replayITTAGE(s []isa.Inst) (time.Duration, int) {
	p := ittage.New(ittage.Config64KB())
	n := 0
	start := time.Now()
	for i := range s {
		in := &s[i]
		if !in.Class.IsBranch() {
			continue
		}
		if in.Class == isa.IndirectJump || in.Class == isa.IndirectCall {
			l := p.Predict(p.Hist(), in.PC)
			p.Update(in.PC, in.Target, &l)
			n++
		}
		p.Hist().Push(in.PC, in.NextPC(), in.Taken)
	}
	return time.Since(start), n
}

func replayBTB(s []isa.Inst) (time.Duration, int) {
	b := btb.New(btb.DefaultConfig())
	n := 0
	start := time.Now()
	for i := range s {
		in := &s[i]
		if !in.Class.IsBranch() {
			continue
		}
		n++
		if tgt, _, hit := b.Lookup(in.PC); in.Taken && (!hit || tgt != in.Target) {
			b.Insert(in.PC, in.Target, btb.KindOf(in.Class))
		}
	}
	return time.Since(start), n
}

// entryStart marks the instructions that begin a fetch entry: the
// first, any after a taken branch, and any that enter a new µ-op cache
// region.
func entryStart(s []isa.Inst, i int) bool {
	if i == 0 {
		return true
	}
	prev := &s[i-1]
	return (prev.Class.IsBranch() && prev.Taken) || uopcache.RegionOf(prev.PC) != uopcache.RegionOf(s[i].PC)
}

func replayUopLookup(s []isa.Inst) (time.Duration, int) {
	u := uopcache.New(uopcache.DefaultConfig())
	bl := uopcache.NewBuilder(u, false)
	for i := range s {
		bl.Add(s[i].PC, s[i].Class, s[i].Taken)
	}
	n := 0
	start := time.Now()
	for i := range s {
		if entryStart(s, i) {
			u.Lookup(s[i].PC)
			n++
		}
	}
	return time.Since(start), n
}

func replayUopInsert(s []isa.Inst) (time.Duration, int) {
	u := uopcache.New(uopcache.DefaultConfig())
	bl := uopcache.NewBuilder(u, false)
	start := time.Now()
	for i := range s {
		bl.Add(s[i].PC, s[i].Class, s[i].Taken)
	}
	return time.Since(start), int(u.Stats().Inserts)
}

func replayFetch(s []isa.Inst) (time.Duration, int) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	n := 0
	last := ^uint64(0)
	start := time.Now()
	for i := range s {
		if line := s[i].LineAddr(); line != last {
			h.FetchInst(line, uint64(i))
			last = line
			n++
		}
	}
	return time.Since(start), n
}

func replayLoad(s []isa.Inst) (time.Duration, int) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	n := 0
	start := time.Now()
	for i := range s {
		if s[i].Class == isa.Load {
			h.Load(s[i].MemAddr, uint64(i))
			n++
		}
	}
	return time.Since(start), n
}
