package runq

import (
	"bytes"
	"os"
	"testing"

	"ucp/internal/ckpt"
	"ucp/internal/sim"
	"ucp/internal/stats"
)

// FuzzLoadRecord writes fuzzed bytes at a key's record path and loads
// them. The property: the load is a miss or returns exactly the stored
// result, and never panics. An input edits the real stored record, as
// FuzzRestoreWarm does a checkpoint: patch is written over it (or
// inserted) at off, and a nonzero keep truncates the result, so inputs
// stay small while reaching every byte. With reseal set the edit
// applies to the record's JSON, which is then resealed in a record
// envelope, so it gets past the seal: the decoder and the identity
// checks behind it must not panic either.
func FuzzLoadRecord(f *testing.F) {
	dir := f.TempDir()
	job := quickJobs(1000, 1000)[0]
	key, err := Key(job)
	if err != nil {
		f.Fatal(err)
	}
	lens := stats.NewHistogram("stream")
	for _, v := range []uint64{1, 7, 300} {
		lens.Add(v)
	}
	stored := sim.Result{Name: "baseline", Trace: job.Profile.Name, Insts: 1000, Cycles: 10310,
		IPC: 1000.0 / 10310, StreamLens: lens}
	want := stored.DeterminismDigest()
	p := New(Options{CacheDir: dir, RunJob: func(Job, sim.ProgressFunc) (sim.Result, error) { return stored, nil }})
	if jr := p.RunOne(job, nil); jr.Err != nil {
		f.Fatal(jr.Err)
	}
	path := recordPath(dir, key)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	js := recordJSON(f, valid)

	f.Add(uint32(0), []byte(nil), false, uint32(0), false)
	f.Add(uint32(bytes.Index(valid, []byte(`"Cycles":`))+9), []byte("2"), false, uint32(0), false)
	f.Add(uint32(0), []byte(nil), false, uint32(len(valid)/2), false)
	f.Add(uint32(0), []byte(nil), false, uint32(0), true)
	f.Add(uint32(bytes.Index(js, []byte(`"Cycles":`))+9), []byte("2"), false, uint32(0), true)
	f.Add(uint32(bytes.Index(js, []byte(`"StreamLens":`))+13), []byte(`{"buckets":[1,2]},"X":`), true, uint32(0), true)
	f.Fuzz(func(t *testing.T, off uint32, patch []byte, insert bool, keep uint32, reseal bool) {
		base := valid
		if reseal {
			base = js
		}
		o := int(off % uint32(len(base)))
		var data []byte
		if insert {
			data = append(append(append(data, base[:o]...), patch...), base[o:]...)
		} else {
			data = append(data, base...)
			copy(data[o:], patch)
		}
		if keep > 0 {
			data = data[:int(keep%uint32(len(data)+1))]
		}
		if reseal {
			data = sealRecord(data)
		}
		// Remove first: truncating a file in place can force a flush
		// (ext4's auto_da_alloc), costing far more than the load itself.
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit, release := ckpt.NewCache(dir, 0, nil, recordCodec).Acquire(key)
		if hit == ckpt.Miss {
			release(nil)
		}
		switch {
		case hit == ckpt.Miss && bytes.Equal(data, valid):
			t.Fatal("the stored record loaded as a miss")
		case hit != ckpt.Miss && !reseal && got.rec.Result.DeterminismDigest() != want:
			t.Fatalf("edited bytes loaded as a result other than the stored one:\n%s", got.rec.Result.DeterminismDigest())
		}
	})
}
