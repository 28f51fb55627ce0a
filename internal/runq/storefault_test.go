package runq

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// storeTarget is one user of the content-addressed store whose disk
// tier the fault table damages: the result cache or the checkpoint
// store.
type storeTarget struct {
	name string
	ext  string
	opts func(dir string) Options
	jobs []Job
	// tier names where a pool's run found its values: "miss" (it
	// computed them), "disk" (it loaded them) or "memo".
	tier func(p *Pool, rs []JobResult) string
	// writeFailures is the pool's count of values this store failed
	// to write to disk.
	writeFailures func(p *Pool) int
	// note is the pool's write-failure report after one failed write.
	note string
}

func storeTargets() []storeTarget {
	return []storeTarget{{
		name: "results",
		ext:  recordCodec.Ext,
		opts: func(dir string) Options { return Options{Workers: 1, CacheDir: dir} },
		jobs: quickJobs(20_000, 20_000)[:1],
		tier: func(_ *Pool, rs []JobResult) string {
			if rs[0].Source == SourceRun {
				return "miss"
			}
			return rs[0].Source
		},
		writeFailures: func(p *Pool) int { return p.Stats().WriteFailures },
		note:          "runq: 1 result(s) and 0 checkpoint(s) could not be written to disk; the next run recomputes them\n",
	}, {
		// Two sampled jobs share one warm checkpoint: the first
		// captures it or loads it from disk, the second restores it
		// from memory.
		name: "checkpoints",
		ext:  ".ckpt",
		opts: func(dir string) Options { return Options{Workers: 1, CkptDir: dir} },
		jobs: sampledJobs(2),
		tier: func(p *Pool, rs []JobResult) string {
			if rs[0].Source == SourceMemo && rs[1].Source == SourceMemo {
				return "memo"
			}
			switch captured, restored := p.CheckpointStats(); {
			case captured == 1 && restored == 1:
				return "miss"
			case captured == 0 && restored == 2:
				return "disk"
			default:
				return fmt.Sprintf("%d captured, %d restored", captured, restored)
			}
		},
		writeFailures: (*Pool).CheckpointWriteFailures,
		note:          "runq: 0 result(s) and 1 checkpoint(s) could not be written to disk; the next run recomputes them\n",
	}}
}

// storeFaults damage the file at path in place. heals is false for a
// fault the store cannot repair, so it reads as a miss again in every
// later pool.
var storeFaults = []struct {
	name   string
	heals  bool
	damage func(t *testing.T, path string, b []byte)
}{
	{"truncated", true, func(t *testing.T, path string, b []byte) {
		write(t, path, b[:len(b)/2])
	}},
	{"edited byte", true, func(t *testing.T, path string, b []byte) {
		b[len(b)/2] ^= 1
		write(t, path, b)
	}},
	{"previous envelope version", true, func(t *testing.T, path string, b []byte) {
		// Restamp the version word after the 4-byte magic, then reseal:
		// the blob is intact but one envelope version old.
		body := b[:len(b)-sha256.Size]
		binary.LittleEndian.PutUint32(body[4:8], binary.LittleEndian.Uint32(body[4:8])-1)
		sum := sha256.Sum256(body)
		write(t, path, append(body, sum[:]...))
	}},
	{"stale temp file", true, func(t *testing.T, path string, b []byte) {
		// A writer that died between write and rename: a partial temp
		// file beside a missing target.
		stale := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp-1")
		write(t, stale, b[:len(b)/3])
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}},
	{"directory at target", false, func(t *testing.T, path string, _ []byte) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}},
}

func write(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStorageFaultsReadAsMiss runs one table of disk-tier faults
// against the result cache and the checkpoint store. Each fault must
// read as a miss that returns the cold digests. A fault the store can
// repair heals: the next pool loads from disk. A directory at the
// target path cannot be replaced, so the value lives in memory (a rerun
// on the same pool is a memo hit) and every later pool misses again,
// without an error; the pool counts the failed write and reports it in
// one line. A store that writes its file counts and reports none.
func TestStorageFaultsReadAsMiss(t *testing.T) {
	for _, target := range storeTargets() {
		for _, fault := range storeFaults {
			t.Run(target.name+"/"+fault.name, func(t *testing.T) {
				dir := t.TempDir()
				var want []string
				// run resolves the jobs on p, checks their digests
				// against the cold run's, and names the tier they came
				// from.
				run := func(p *Pool) string {
					t.Helper()
					rs := p.RunAll(target.jobs)
					got := make([]string, len(rs))
					for i, r := range rs {
						if r.Err != nil {
							t.Fatalf("job %d: %v", i, r.Err)
						}
						got[i] = r.Result.DeterminismDigest()
					}
					if want == nil {
						want = got
					} else if !slices.Equal(got, want) {
						t.Fatal("digests differ from the cold run")
					}
					return target.tier(p, rs)
				}
				cold := New(target.opts(dir))
				if got := run(cold); got != "miss" {
					t.Fatalf("cold pool: %s, want miss", got)
				}
				if n := target.writeFailures(cold); n != 0 {
					t.Fatalf("cold pool: %d write failures, want 0", n)
				}
				paths, err := filepath.Glob(filepath.Join(dir, "*", "*"+target.ext))
				if err != nil || len(paths) != 1 {
					t.Fatalf("cold run left %v (err %v), want one %s file", paths, err, target.ext)
				}
				b, err := os.ReadFile(paths[0])
				if err != nil {
					t.Fatal(err)
				}
				fault.damage(t, paths[0], b)

				faulted := New(target.opts(dir))
				if got := run(faulted); got != "miss" {
					t.Fatalf("faulted store: %s, want miss", got)
				}
				if got := run(faulted); got != "memo" {
					t.Fatalf("faulted store rerun: %s, want memo", got)
				}
				switch n := target.writeFailures(faulted); {
				case fault.heals && n != 0:
					t.Fatalf("faulted store: %d write failures, want 0", n)
				case !fault.heals && n < 1:
					t.Fatal("faulted store: no write failure counted for an obstructed target")
				}
				// The pool reports a failed write in one line, and
				// nothing when every write succeeded.
				var note strings.Builder
				cold.ReportWriteFailures(&note)
				faulted.ReportWriteFailures(&note)
				wantNote := ""
				if !fault.heals {
					wantNote = target.note
				}
				if note.String() != wantNote {
					t.Fatalf("write-failure report %q, want %q", note.String(), wantNote)
				}
				next := "disk"
				if !fault.heals {
					next = "miss"
				}
				if got := run(New(target.opts(dir))); got != next {
					t.Fatalf("pool after the fault: %s, want %s", got, next)
				}
			})
		}
	}
}
