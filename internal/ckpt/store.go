package ckpt

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is a content-addressed checkpoint cache with single-flight
// admission: when N sweep jobs sharing a checkpoint key start together,
// exactly one runs the fast-forward and publishes the blob; the others
// block on Acquire until it lands and then restore from it. Blobs are
// memoized in memory for the life of the Store and, when dir is
// non-empty, persisted to dir (sharded like the runq result cache) so
// later processes reuse them.
//
// A Store is safe for concurrent use by any number of goroutines.
type Store struct {
	dir string

	// maxBytes bounds the on-disk footprint (0: unbounded); now is the
	// injected wall clock (unix nanoseconds) that stamps blob files on
	// every successful verify, so pruning evicts the least-recently-
	// verified blobs first. The clock is injected from cmd/ — internal
	// packages never read wall time (ucplint wallclock rule) — and a nil
	// clock degrades to least-recently-written order (file mtimes).
	maxBytes int64
	now      func() int64

	mu      sync.Mutex
	mem     map[string][]byte
	bytes   int // sum of the memoized blobs' lengths
	flights map[string]chan struct{}
	hits    int
	misses  int

	// pruneMu serializes pruning passes; pruning walks the directory
	// and must not run under mu (disk latency would serialize every
	// unrelated Acquire).
	pruneMu sync.Mutex
}

// NewStore returns a store persisting to dir; an empty dir keeps
// checkpoints in memory only (still deduplicated within the process).
// The on-disk footprint is unbounded; see NewStoreLimit.
func NewStore(dir string) *Store {
	return NewStoreLimit(dir, 0, nil)
}

// NewStoreLimit is NewStore with an on-disk size bound: after every
// persisted blob, least-recently-verified blobs are removed until the
// directory's checkpoint bytes fit within maxBytes (0: unbounded).
// "Recently verified" is tracked by re-stamping a blob file's mtime
// from the injected now clock (unix nanoseconds) each time a disk load
// verifies; with a nil clock, eviction falls back to write order. The
// in-memory memo is unaffected — a pruned blob simply reads as a miss
// in later processes, exactly like a corrupt one.
func NewStoreLimit(dir string, maxBytes int64, now func() int64) *Store {
	return &Store{
		dir:      dir,
		maxBytes: maxBytes,
		now:      now,
		mem:      make(map[string][]byte),
		flights:  make(map[string]chan struct{}),
	}
}

// path maps a key to its blob file, sharded by the leading digest byte.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".ckpt")
}

// Acquire looks up key. Three outcomes:
//
//   - hit: returns (blob, true, nil) — restore from blob.
//   - leader: returns (nil, false, release) — the caller must run the
//     fast-forward, then call release(blob) to publish the sealed blob,
//     or release(nil) to abort (on error or cancellation) so a waiter
//     can take over leadership.
//   - follower: blocks until the leader releases, then resolves to one
//     of the above.
//
// The blob returned on a hit is shared; callers must treat it as
// read-only (Reader never mutates it).
func (s *Store) Acquire(key string) (blob []byte, ok bool, release func([]byte)) {
	for {
		s.mu.Lock()
		if b, hit := s.mem[key]; hit {
			s.hits++
			s.mu.Unlock()
			return b, true, nil
		}
		if b, hit := s.loadDisk(key); hit {
			s.memoize(key, b)
			s.hits++
			s.mu.Unlock()
			return b, true, nil
		}
		flight, inFlight := s.flights[key]
		if !inFlight {
			done := make(chan struct{})
			s.flights[key] = done
			s.misses++
			s.mu.Unlock()
			var once sync.Once
			return nil, false, func(b []byte) {
				once.Do(func() { s.release(key, done, b) })
			}
		}
		s.mu.Unlock()
		<-flight
	}
}

// release publishes the leader's blob (or aborts on nil) and wakes all
// waiters. Waiters re-run the Acquire loop: after a publish they hit
// the memo; after an abort one of them becomes the new leader.
func (s *Store) release(key string, done chan struct{}, blob []byte) {
	s.mu.Lock()
	if blob != nil {
		s.memoize(key, blob)
	}
	delete(s.flights, key)
	s.mu.Unlock()
	close(done)
	if blob != nil {
		// Persist outside the lock: disk latency must not serialize
		// unrelated keys. Write failures are non-fatal — the in-memory
		// memo already serves this process.
		s.storeDisk(key, blob)
	}
}

// memoize holds blob in memory under key. Called with s.mu held; a key
// is memoized at most once (Acquire only elects a leader or loads from
// disk on a memo miss).
func (s *Store) memoize(key string, blob []byte) {
	s.mem[key] = blob
	s.bytes += len(blob)
}

// loadDisk fetches a persisted blob, verifying the envelope; corrupt or
// foreign files are misses (and later overwritten). Called with s.mu
// held — file reads under the lock are acceptable here because misses
// are the common case and hits immediately memoize.
func (s *Store) loadDisk(key string) ([]byte, bool) {
	if s.dir == "" || len(key) < 2 {
		return nil, false
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	if Verify(b) != nil {
		return nil, false
	}
	if s.now != nil {
		// Touch on verify: the blob proved its worth, so it moves to the
		// back of the pruning order. Best-effort — a failed Chtimes only
		// costs eviction priority.
		t := time.Unix(0, s.now())
		os.Chtimes(s.path(key), t, t)
	}
	return b, true
}

// storeDisk persists a blob atomically (temp + rename) so concurrent
// readers — or a second process sharing the directory — never observe a
// torn checkpoint.
func (s *Store) storeDisk(key string, blob []byte) {
	if s.dir == "" || len(key) < 2 {
		return
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp-")
	if err != nil {
		return
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if s.now != nil {
		t := time.Unix(0, s.now())
		os.Chtimes(path, t, t)
	}
	if s.maxBytes > 0 {
		s.prune()
	}
}

// prune removes least-recently-verified checkpoint blobs until the
// directory's .ckpt bytes fit within maxBytes. Boundary-checkpoint
// capture (internal/tpar) writes one blob per segment or window
// boundary per distinct warm config, so an unbounded store grows with
// every sweep; the bound turns it into an LRU tier. Concurrent writers
// both prune; pruneMu keeps the walk-and-delete passes from
// interleaving, and a blob deleted under a concurrent reader's feet is
// indistinguishable from a miss (ReadFile fails, Acquire elects a
// leader).
func (s *Store) prune() {
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	type blob struct {
		path string
		size int64
		mod  time.Time
	}
	var blobs []blob
	var total int64
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ckpt") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		blobs = append(blobs, blob{path: path, size: info.Size(), mod: info.ModTime()})
		total += info.Size()
		return nil
	})
	if total <= s.maxBytes {
		return
	}
	// Oldest verify-stamp first; ties break on path so two stores
	// pruning the same directory converge on the same victims.
	sort.Slice(blobs, func(i, j int) bool {
		if !blobs[i].mod.Equal(blobs[j].mod) {
			return blobs[i].mod.Before(blobs[j].mod)
		}
		return blobs[i].path < blobs[j].path
	})
	for _, b := range blobs {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(b.path) == nil {
			total -= b.size
		}
	}
}

// Len reports how many checkpoints are memoized in memory (testing and
// progress reporting).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Bytes reports the total length of the blobs memoized in memory: the
// store's in-process footprint, which grows by one blob per distinct
// checkpoint key for the life of the Store.
func (s *Store) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Hits reports how many Acquire calls resolved to an existing blob
// (memory or disk) over the store's lifetime.
func (s *Store) Hits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses reports how many Acquire calls found no blob and elected a
// leader to compute one (aborted flights count once per re-election).
// Together with Hits it is the shared-tier hit-rate surface sweepd's
// /v1/statz reports.
func (s *Store) Misses() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// KeyError annotates a checkpoint failure with its key for diagnostics.
func KeyError(key string, err error) error {
	return fmt.Errorf("ckpt %s: %w", key[:min(12, len(key))], err)
}
