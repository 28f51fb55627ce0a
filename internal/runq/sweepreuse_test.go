package runq

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ucp/internal/sim"
	"ucp/internal/tpar"
	"ucp/internal/trace"
)

// sampledJobs builds a small sweep of sampled jobs over one profile
// whose configs differ only in measurement-phase parameters, so they
// all share one warm-checkpoint key.
func sampledJobs(n int) []Job {
	prof := trace.QuickProfiles()[0]
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := sim.Baseline()
		cfg.Name = strings.Repeat("v", i+1)
		cfg.Backend.ROB += i * 32
		cfg.Sampling = sim.SamplingConfig{
			Enabled: true, PeriodInsts: 25_000, DetailedInsts: 2_000,
			WarmInsts: 4_000, FFWarmInsts: 8_000,
		}
		jobs[i] = Job{Config: cfg, Profile: prof, Warmup: 50_000, Measure: 50_000}
	}
	return jobs
}

// digests runs jobs on a pool and returns their determinism digests,
// failing the test on any job error.
func digests(t *testing.T, p *Pool, jobs []Job) []string {
	t.Helper()
	rs := p.RunAll(jobs)
	out := make([]string, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		out[i] = r.Result.DeterminismDigest()
	}
	return out
}

// TestArenaResultsMatchWalker pins the equivalence recorded-trace jobs
// rely on: a cursor over an arena materialized from a profile's stream
// and the profile's own generator walk are interchangeable sources.
// Every run shape through tpar.Run — serial full-detail and sampled,
// time-parallel segments, window-parallel sampled windows — gives
// byte-identical digests over either.
func TestArenaResultsMatchWalker(t *testing.T) {
	const warm, meas = 10_000, 40_000
	full := quickJobs(warm, meas)[0]
	sampled := sampledQuickJobs(warm, meas)[0]
	prog, err := trace.BuildProgram(full.Profile)
	if err != nil {
		t.Fatal(err)
	}
	budget := warm + meas + 200_000
	a := trace.ArenaFromSource(trace.NewLimit(trace.NewWalker(prog), budget), budget)
	walker := func() trace.Source { return trace.NewLimit(trace.NewWalker(prog), budget) }
	cursor := func() trace.Source { return a.Cursor() }

	for _, c := range []struct {
		name     string
		job      Job
		segments int
	}{
		{"serial", full, 1},
		{"serial-sampled", sampled, 1},
		{"segmented", full, 2},
		{"windowed", sampled, 2},
	} {
		cfg := c.job.Config
		cfg.WarmupInsts, cfg.MeasureInsts = warm, meas
		run := func(newSource func() trace.Source) string {
			res, err := tpar.Run(cfg, newSource, prog, c.job.traceLabel(), tpar.Options{Segments: c.segments, Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res.DeterminismDigest()
		}
		if run(cursor) != run(walker) {
			t.Errorf("%s: arena-cursor digest diverges from generator digest", c.name)
		}
	}
}

// TestSyntheticJobsBuildNoArena pins the pool's source policy:
// synthetic-profile jobs stream from the generator whatever their shape,
// so a serial job with the retired UseArena set, a time-parallel job
// and a window-parallel sampled job leave the pool without an arena.
func TestSyntheticJobsBuildNoArena(t *testing.T) {
	serial := quickJobs(10_000, 20_000)[0]
	segmented := serial
	segmented.Segments = 2
	windowed := sampledQuickJobs(10_000, 20_000)[0]
	windowed.Segments = 2
	p := New(Options{Workers: 2, UseArena: true})
	digests(t, p, []Job{serial, segmented, windowed})
	if got := p.ArenaCount(); got != 0 {
		t.Errorf("synthetic jobs built %d arenas, want 0", got)
	}
}

// TestCheckpointReuseAcrossJobs pins the sweep-reuse guarantee at the
// pool level: a sweep of configs sharing a checkpoint key produces digests
// byte-identical to a pool without checkpoints, while capturing the
// fast-forward exactly once.
func TestCheckpointReuseAcrossJobs(t *testing.T) {
	jobs := sampledJobs(3)
	cold := digests(t, New(Options{Workers: 2}), jobs)
	p := New(Options{Workers: 2, Checkpoints: true})
	for i, d := range digests(t, p, jobs) {
		if d != cold[i] {
			t.Errorf("job %d: checkpointed digest diverges from cold digest", i)
		}
	}
	if got := p.ckpts.Len(); got != 1 {
		t.Errorf("sweep captured %d checkpoints, want 1 (shared checkpoint key)", got)
	}
	if got := p.CheckpointBytes(); got <= 0 || got != p.ckpts.Bytes() {
		t.Errorf("CheckpointBytes %d, want the store's %d (positive)", got, p.ckpts.Bytes())
	}
	if got := New(Options{}).CheckpointBytes(); got != 0 {
		t.Errorf("pool without checkpoints reports %d checkpoint bytes", got)
	}
}

// TestCheckpointStatsCountCaptures pins what /v1/statz reports as
// ckpt_captured: the checkpoints a pool fast-forwarded to itself. A
// second pool over a populated CkptDir loads the one shared checkpoint
// from disk and restores every job from it, so it captured nothing.
func TestCheckpointStatsCountCaptures(t *testing.T) {
	dir := t.TempDir()
	jobs := sampledJobs(3)
	first := New(Options{Workers: 1, CkptDir: dir})
	digests(t, first, jobs)
	if captured, restored := first.CheckpointStats(); captured != 1 || restored != 2 {
		t.Errorf("first pool: %d captured, %d restored; want 1 and 2", captured, restored)
	}
	second := New(Options{Workers: 1, CkptDir: dir})
	digests(t, second, jobs)
	if captured, restored := second.CheckpointStats(); captured != 0 || restored != 3 {
		t.Errorf("pool over a populated CkptDir: %d captured, %d restored; want 0 and 3", captured, restored)
	}
}

// TestFileTraceJobs covers recorded-trace jobs end to end: the pool
// decodes the file once into a shared arena however many jobs reference
// it, keys results by trace content (not path), and refuses to key such
// jobs without the pool's arena.
func TestFileTraceJobs(t *testing.T) {
	path := writeTraceFile(t, 60_000)
	dir := filepath.Dir(path)

	mk := func(name string) Job {
		cfg := sim.Baseline()
		cfg.Name = name
		return Job{Config: cfg, TraceFile: path, Warmup: 10_000, Measure: 20_000}
	}
	if _, err := Key(mk("a")); err == nil {
		t.Error("Key accepted a recorded-trace job without its content digest")
	}

	p := New(Options{Workers: 2})
	ds := digests(t, p, []Job{mk("a"), mk("b")})
	if ds[0] == ds[1] {
		// Name differs, so the digests differ; equality would mean the
		// second job aliased the first's result.
		t.Error("distinct configs over one file returned one result")
	}
	if got := p.arenas.Len(); got != 1 {
		t.Errorf("two file jobs built %d arenas, want 1", got)
	}

	// Content keying: the same bytes under another path share a key.
	path2 := filepath.Join(dir, "renamed.ucpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j1, j2 := mk("a"), mk("a")
	j2.TraceFile = path2
	k1, err := p.jobKey(j1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := p.jobKey(j2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical trace content keyed apart under different paths")
	}
}

// writeTraceFile records n instructions of a quick profile as a trace
// file in a fresh temp directory and returns its path.
func writeTraceFile(t *testing.T, n int) string {
	t.Helper()
	prog, err := trace.BuildProgram(trace.QuickProfiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.ucpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCompact(f, trace.Collect(trace.NewWalker(prog), n)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFileTraceCacheRecordNamesFile checks a recorded-trace job's disk
// cache record names the trace file (such a job has no profile name).
func TestFileTraceCacheRecordNamesFile(t *testing.T) {
	path := writeTraceFile(t, 30_000)
	job := Job{Config: sim.Baseline(), TraceFile: path, Warmup: 5_000, Measure: 10_000}
	p := New(Options{Workers: 1, CacheDir: t.TempDir()})
	digests(t, p, []Job{job})
	key, err := p.jobKey(job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(recordPath(p.opts.CacheDir, key))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(recordJSON(t, b), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Trace != path {
		t.Fatalf("cache record names trace %q, want %q", rec.Trace, path)
	}
}
