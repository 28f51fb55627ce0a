package runq

import (
	"strings"
	"testing"

	"ucp/internal/sim"
	"ucp/internal/trace"
)

// TestKeyNormalizesTimeParIdentity pins the cache-key contract for
// time-parallel jobs: both serial spellings (0 and 1 segments) share
// one key, a segmented job never shares a record with its serial twin —
// boundary warming changes the measured bytes — and the segment count
// is part of the key.
func TestKeyNormalizesTimeParIdentity(t *testing.T) {
	base := Job{Config: sim.Baseline(), Profile: trace.QuickProfiles()[0], Warmup: 1000, Measure: 1000}
	k0, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	one.Segments = 1
	if k1, _ := Key(one); k1 != k0 {
		t.Error("Segments=1 keys apart from Segments=0; both are the serial engine")
	}

	seg := base
	seg.Segments = 4
	ks, _ := Key(seg)
	if ks == k0 {
		t.Error("segmented job shares a key with its serial twin")
	}
	segMore := seg
	segMore.Segments = 8
	if km, _ := Key(segMore); km == ks {
		t.Error("segment count not in the key")
	}
}

// TestRetiredBoundaryRejected: Job.Boundary only survives as a field;
// a job carrying any non-zero value fails instead of being keyed (and
// memoized) as if the value applied.
func TestRetiredBoundaryRejected(t *testing.T) {
	job := Job{Config: sim.Baseline(), Profile: trace.QuickProfiles()[0], Warmup: 1000, Measure: 1000, Segments: 4}
	job.Boundary = sim.DefaultBoundaryWarm()
	if _, err := Key(job); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("Key accepted a non-zero Boundary: err = %v", err)
	}
	if jr := New(Options{Workers: 1}).RunAll([]Job{job})[0]; jr.Err == nil {
		t.Fatal("RunAll ran a job with a non-zero Boundary")
	}
}

// TestSegmentedJobsDeterministicAcrossWorkerCounts is the pool-level
// tentpole bar: segmented jobs must produce byte-identical digests
// whether the pool runs one worker or eight — worker goroutines and
// segment goroutines both reorder freely underneath.
func TestSegmentedJobsDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := quickJobs(20_000, 20_000)
	for i := range jobs {
		jobs[i].Segments = 4
	}
	serial := New(Options{Workers: 1}).RunAll(jobs)
	parallel := New(Options{Workers: 8}).RunAll(jobs)
	for i := range jobs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Result.TimePar == nil || serial[i].Result.TimePar.Segments != 4 {
			t.Fatalf("job %d is not time-parallel: TimePar = %+v", i, serial[i].Result.TimePar)
		}
		a, b := serial[i].Result.DeterminismDigest(), parallel[i].Result.DeterminismDigest()
		if a != b {
			t.Fatalf("job %d digests diverge between 1 and 8 workers:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestSegmentedDiskCacheRoundTrip: a segmented result — TimePar block,
// summed histograms and all — must survive the on-disk result cache and
// replay byte-identically in a fresh pool.
func TestSegmentedDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jobs := quickJobs(20_000, 20_000)[:1]
	jobs[0].Segments = 4

	cold := New(Options{Workers: 2, CacheDir: dir}).RunAll(jobs)
	if cold[0].Err != nil {
		t.Fatal(cold[0].Err)
	}
	if cold[0].Source != SourceRun {
		t.Fatalf("cold source = %q, want %q", cold[0].Source, SourceRun)
	}
	warm := New(Options{Workers: 2, CacheDir: dir}).RunAll(jobs)
	if warm[0].Err != nil {
		t.Fatal(warm[0].Err)
	}
	if warm[0].Source != SourceDisk {
		t.Fatalf("warm source = %q, want %q", warm[0].Source, SourceDisk)
	}
	if warm[0].Result.DeterminismDigest() != cold[0].Result.DeterminismDigest() {
		t.Fatal("disk round trip changed the segmented result")
	}
}
