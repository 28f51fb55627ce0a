package runq

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ucp/internal/ckpt"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

func quickJobs(warm, meas uint64) []Job {
	profs := trace.QuickProfiles()
	jobs := make([]Job, len(profs))
	for i, p := range profs {
		jobs[i] = Job{Config: sim.Baseline(), Profile: p, Warmup: warm, Measure: meas}
	}
	return jobs
}

func TestKeyDistinguishesContents(t *testing.T) {
	prof := trace.QuickProfiles()[0]
	base := Job{Config: sim.Baseline(), Profile: prof, Warmup: 1000, Measure: 1000}
	k1, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	if k2, _ := Key(base); k2 != k1 {
		t.Fatal("same job hashed to different keys")
	}

	// Same config name, different contents: the old cfg.Name+"/"+trace
	// key collided here; the digest must not.
	bigger := base
	bigger.Config.Uop.Ops = 8192
	if k2, _ := Key(bigger); k2 == k1 {
		t.Fatal("config contents not in the key")
	}

	// Different instruction budgets must hash apart.
	longer := base
	longer.Measure = 2000
	if k2, _ := Key(longer); k2 == k1 {
		t.Fatal("measure count not in the key")
	}
	warmer := base
	warmer.Warmup = 2000
	if k2, _ := Key(warmer); k2 == k1 {
		t.Fatal("warmup count not in the key")
	}

	// Different workload parameters under the same trace name too.
	tweaked := base
	tweaked.Profile.Seed++
	if k2, _ := Key(tweaked); k2 == k1 {
		t.Fatal("profile parameters not in the key")
	}

	// Sampling parameters change the measured numbers, so every field of
	// the sampling geometry must hash apart from the full-detail run and
	// from each other.
	sampled := base
	sampled.Config.Sampling = sim.SamplingConfig{
		Enabled: true, PeriodInsts: 500, DetailedInsts: 100, WarmInsts: 100,
	}
	ks, _ := Key(sampled)
	if ks == k1 {
		t.Fatal("sampling params not in the key")
	}
	regeo := sampled
	regeo.Config.Sampling.FFWarmInsts = 250
	if k2, _ := Key(regeo); k2 == ks {
		t.Fatal("sampling warm horizon not in the key")
	}

	// The adaptive fields change how many windows run, so probes of the
	// same geometry at different targets (or bounds) must hash apart —
	// a cached coarse probe must never answer for a tight one.
	adaptive := sampled
	adaptive.Config.Sampling.TargetCI = 0.02
	ka, _ := Key(adaptive)
	if ka == ks {
		t.Fatal("adaptive target not in the key")
	}
	tighter := adaptive
	tighter.Config.Sampling.TargetCI = 0.01
	if k2, _ := Key(tighter); k2 == ka {
		t.Fatal("adaptive target value not in the key")
	}
	bounded := adaptive
	bounded.Config.Sampling.MaxWindows = 16
	if k2, _ := Key(bounded); k2 == ka {
		t.Fatal("adaptive window bounds not in the key")
	}
}

func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := quickJobs(20_000, 20_000)
	serial := New(Options{Workers: 1}).RunAll(jobs)
	parallel := New(Options{Workers: 8}).RunAll(jobs)
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result count: %d and %d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Job.Profile.Name != jobs[i].Profile.Name {
			t.Fatalf("job %d out of submission order", i)
		}
		a, b := serial[i].Result.DeterminismDigest(), parallel[i].Result.DeterminismDigest()
		if a != b {
			t.Fatalf("job %d digests diverge between 1 and 8 workers:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestAdaptiveJobsWorkerCountInvariant is the adaptive analogue of the
// worker-count test: adaptive stop decisions are per-run pure functions
// of the window-mean sequence, so a batch of adaptive jobs (sharing
// warm checkpoints) produces byte-identical reports at 1 and 8 workers.
func TestAdaptiveJobsWorkerCountInvariant(t *testing.T) {
	profs := trace.QuickProfiles()
	var jobs []Job
	for _, target := range []float64{0.05, 0.02} {
		for _, p := range profs[:2] {
			cfg := sim.Baseline()
			cfg.Sampling = sim.SamplingConfig{
				Enabled:       true,
				PeriodInsts:   25_000,
				DetailedInsts: 2_000,
				WarmInsts:     2_000,
				FFWarmInsts:   8_000,
				TargetCI:      target,
				MinWindows:    4,
			}
			jobs = append(jobs, Job{Config: cfg, Profile: p, Warmup: 50_000, Measure: 400_000})
		}
	}
	serial := New(Options{Workers: 1, Checkpoints: true}).RunAll(jobs)
	parallel := New(Options{Workers: 8, Checkpoints: true}).RunAll(jobs)
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		a, b := serial[i].Result.DeterminismDigest(), parallel[i].Result.DeterminismDigest()
		if a != b {
			t.Fatalf("adaptive job %d digests diverge between 1 and 8 workers:\n%s\nvs\n%s", i, a, b)
		}
		if serial[i].Result.Sampled == nil || serial[i].Result.Sampled.TargetCI == 0 {
			t.Fatalf("adaptive job %d carries no adaptive provenance", i)
		}
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobs := quickJobs(20_000, 20_000)[:1]

	cold := New(Options{Workers: 2, CacheDir: dir}).RunAll(jobs)
	if cold[0].Err != nil {
		t.Fatal(cold[0].Err)
	}
	if cold[0].Source != SourceRun {
		t.Fatalf("cold source = %q, want %q", cold[0].Source, SourceRun)
	}

	// A fresh pool (fresh process, in effect) must replay from disk and
	// reproduce the exact determinism digest, histograms included.
	warm := New(Options{Workers: 2, CacheDir: dir}).RunAll(jobs)
	if warm[0].Err != nil {
		t.Fatal(warm[0].Err)
	}
	if warm[0].Source != SourceDisk {
		t.Fatalf("warm source = %q, want %q", warm[0].Source, SourceDisk)
	}
	if warm[0].Result.DeterminismDigest() != cold[0].Result.DeterminismDigest() {
		t.Fatal("disk round trip changed the result")
	}
}

// TestDiskCacheCorruptRecordIsMiss edits one byte of a stored record —
// the first digit of its cycle count, which still parses — and pins
// that a fresh pool treats it as a miss: it reruns the job, returns the
// cold digest, and heals the record for the next pool.
func TestDiskCacheCorruptRecordIsMiss(t *testing.T) {
	dir := t.TempDir()
	jobs := quickJobs(20_000, 20_000)[:1]
	cold := New(Options{Workers: 1, CacheDir: dir}).RunAll(jobs)
	if cold[0].Err != nil {
		t.Fatal(cold[0].Err)
	}
	want := cold[0].Result.DeterminismDigest()

	p := New(Options{Workers: 1, CacheDir: dir})
	path := recordPath(dir, cold[0].Key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const field = `"Cycles":`
	i := bytes.Index(b, []byte(field)) + len(field)
	if i < len(field) || b[i] < '1' || b[i] > '9' {
		t.Fatalf("record has no nonzero %s field", field)
	}
	b[i] = '1' + (b[i]-'1'+1)%9
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got := p.RunAll(jobs)
	if got[0].Err != nil {
		t.Fatal(got[0].Err)
	}
	if got[0].Source != SourceRun {
		t.Fatalf("edited record: source = %q, want %q", got[0].Source, SourceRun)
	}
	if got[0].Result.DeterminismDigest() != want {
		t.Fatal("rerun after an edited record changed the result")
	}
	healed := New(Options{Workers: 1, CacheDir: dir}).RunAll(jobs)
	if healed[0].Source != SourceDisk || healed[0].Result.DeterminismDigest() != want {
		t.Fatalf("healed record: source = %q, digest equal = %v", healed[0].Source,
			healed[0].Result.DeterminismDigest() == want)
	}
}

// recordPath is where a pool with cache directory dir keeps key's
// record.
func recordPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+recordCodec.Ext)
}

// recordJSON returns the JSON a sealed record file holds.
func recordJSON(t testing.TB, blob []byte) []byte {
	t.Helper()
	r, err := ckpt.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	r.Section("record")
	js := r.U8s()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return js
}

func TestMemoAndBatchDedup(t *testing.T) {
	p := New(Options{Workers: 4})
	jobs := quickJobs(10_000, 10_000)[:1]
	// Two identical jobs in one batch: one execution, one copy.
	batch := append(append([]Job(nil), jobs...), jobs...)
	rs := p.RunAll(batch)
	if rs[0].Err != nil || rs[1].Err != nil {
		t.Fatalf("errs: %v %v", rs[0].Err, rs[1].Err)
	}
	if rs[1].Source != SourceMemo {
		t.Fatalf("duplicate source = %q, want %q", rs[1].Source, SourceMemo)
	}
	if got := p.Stats().Runs; got != 1 {
		t.Fatalf("%d runs for two identical jobs, want 1", got)
	}
	// A later batch hits the in-process memo.
	again := p.RunAll(jobs)
	if again[0].Source != SourceMemo {
		t.Fatalf("repeat source = %q, want %q", again[0].Source, SourceMemo)
	}
	if got := p.Stats(); got.Runs != 1 || got.MemoHits != 1 {
		t.Fatalf("stats after repeat: %+v", got)
	}
	if again[0].Result.DeterminismDigest() != rs[0].Result.DeterminismDigest() {
		t.Fatal("memo changed the result")
	}
}

func TestBadConfigFailsItsJobOnly(t *testing.T) {
	jobs := quickJobs(10_000, 10_000)[:2]
	jobs[0].Config.RASEntries = 0 // rejected by sim.Config.Validate
	rs := New(Options{Workers: 2}).RunAll(jobs)
	if rs[0].Err == nil {
		t.Fatal("invalid config did not fail")
	}
	if !strings.Contains(rs[0].Err.Error(), "RASEntries") {
		t.Fatalf("error lost the cause: %v", rs[0].Err)
	}
	if rs[0].Attempts != 2 {
		t.Fatalf("failed job ran %d times, want 2 (retry-once)", rs[0].Attempts)
	}
	if rs[1].Err != nil {
		t.Fatalf("healthy sibling job failed: %v", rs[1].Err)
	}
}

func TestPanicRecoveryAndRetry(t *testing.T) {
	jobs := quickJobs(10_000, 10_000)[:1]

	// Panic on the first attempt, succeed on the second.
	p := New(Options{Workers: 1})
	real := p.runJob
	calls := 0
	p.runJob = func(j Job, hook sim.ProgressFunc) (sim.Result, error) {
		calls++
		if calls == 1 {
			panic("transient fault")
		}
		return real(j, hook)
	}
	rs := p.RunAll(jobs)
	if rs[0].Err != nil {
		t.Fatalf("retry did not rescue the job: %v", rs[0].Err)
	}
	if rs[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rs[0].Attempts)
	}
	if st := p.Stats(); st.Retries != 1 || st.Failures != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Panic on both attempts: a per-job error, not a process crash.
	p2 := New(Options{Workers: 1})
	p2.runJob = func(Job, sim.ProgressFunc) (sim.Result, error) { panic("hard fault") }
	rs2 := p2.RunAll(jobs)
	if rs2[0].Err == nil || !strings.Contains(rs2[0].Err.Error(), "panic: hard fault") {
		t.Fatalf("panic not converted to error: %v", rs2[0].Err)
	}
	if st := p2.Stats(); st.Failures != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestProgressReporting(t *testing.T) {
	var sb strings.Builder
	var fake time.Duration
	p := New(Options{
		Workers:  2,
		Clock:    func() time.Duration { fake += time.Second; return fake },
		Progress: &sb,
	})
	p.runJob = func(Job, sim.ProgressFunc) (sim.Result, error) { return sim.Result{Name: "x"}, nil }
	profs := trace.QuickProfiles()
	var jobs []Job
	for i := 0; i < 4; i++ {
		j := Job{Config: sim.Baseline(), Profile: profs[i%len(profs)], Warmup: uint64(i), Measure: 1}
		jobs = append(jobs, j)
	}
	p.RunAll(jobs)
	out := sb.String()
	if !strings.Contains(out, "4/4 jobs (100%)") {
		t.Fatalf("no completion line:\n%s", out)
	}
	if !strings.Contains(out, "elapsed") {
		t.Fatalf("no elapsed time despite injected clock:\n%s", out)
	}
	if !strings.Contains(out, "eta") {
		t.Fatalf("no eta on intermediate lines:\n%s", out)
	}
}

func TestErrorMemoization(t *testing.T) {
	p := New(Options{Workers: 1})
	calls := 0
	wantErr := errors.New("boom")
	p.runJob = func(Job, sim.ProgressFunc) (sim.Result, error) { calls++; return sim.Result{}, wantErr }
	jobs := quickJobs(10, 10)[:1]
	first := p.RunAll(jobs)
	second := p.RunAll(jobs)
	if first[0].Err == nil || second[0].Err == nil {
		t.Fatal("error not propagated")
	}
	if calls != 2 { // one job, retried once; the repeat batch memo-hits
		t.Fatalf("runJob called %d times, want 2", calls)
	}
	if second[0].Source != SourceMemo {
		t.Fatalf("repeat failure source = %q, want memo", second[0].Source)
	}
}
