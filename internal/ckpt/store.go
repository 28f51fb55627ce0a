package ckpt

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"
)

// Cache is the one content-addressed store: warm checkpoints (Store)
// and runq's job results are its instances. When N callers want one
// key at once, exactly one leads and computes it (Acquire); the rest
// wait for its value. Values stay memoized for the life of the Cache
// and, when dir is non-empty, are sealed by the codec and persisted
// (sharded, temp file and rename) so later processes load them. Every
// file must pass Verify before the codec sees it, so a damaged,
// truncated or foreign file is a miss that the next publish rewrites.
// A Cache is safe for concurrent use by any number of goroutines.
type Cache[V any] struct {
	dir   string
	codec Codec[V]

	// maxBytes bounds the on-disk footprint (0: unbounded); now is the
	// injected wall clock (unix nanoseconds) that stamps files on every
	// successful verify, so pruning evicts the least-recently-verified
	// files first. The clock is injected from cmd/ — internal packages
	// never read wall time (ucplint wallclock rule) — and a nil clock
	// degrades to least-recently-written order (file mtimes).
	maxBytes int64
	now      func() int64

	mu            sync.Mutex
	mem           map[string]V
	bytes         int // sum of the memoized values' sealed sizes
	flights       map[string]chan struct{}
	hits          int
	published     int
	writeFailures int

	// pruneMu serializes pruning passes; pruning walks the directory
	// and must not run under mu (disk latency would serialize every
	// unrelated Acquire).
	pruneMu sync.Mutex
}

// Codec moves a Cache's values between its memo and its disk tier.
// The zero Codec makes a memory-only cache.
type Codec[V any] struct {
	Ext string // file name suffix, after the key

	// Encode returns v's sealed blob (Writer.Seal), or nil to keep v in
	// memory only. Its length is what Bytes counts for v.
	Encode func(key string, v V) []byte
	// Decode rebuilds a value from a file that passed Verify; false
	// makes the file a miss.
	Decode func(key string, blob []byte) (V, bool)
}

// Hit says where Acquire found a key's value: nowhere (Miss: the
// caller leads), in the memo, or on disk.
type Hit uint8

const (
	Miss Hit = iota
	Memo
	Disk
)

// Store is the checkpoint instance of Cache: its values are sealed
// blobs, written to disk as they are.
type Store = Cache[[]byte]

var blobCodec = Codec[[]byte]{
	Ext:    ".ckpt",
	Encode: func(_ string, blob []byte) []byte { return blob },
	Decode: func(_ string, blob []byte) ([]byte, bool) { return blob, true },
}

// NewStore returns a checkpoint store persisting to dir; an empty dir
// keeps checkpoints in memory only (still deduplicated within the
// process). The on-disk footprint is unbounded; see NewStoreLimit.
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
	return NewCache(dir, maxBytes, now, blobCodec)
}

// NewCache returns a cache persisting codec-sealed values to dir (none
// when dir is empty), pruned to maxBytes as NewStoreLimit describes.
func NewCache[V any](dir string, maxBytes int64, now func() int64, codec Codec[V]) *Cache[V] {
	return &Cache[V]{
		dir:      dir,
		codec:    codec,
		maxBytes: maxBytes,
		now:      now,
		mem:      make(map[string]V),
		flights:  make(map[string]chan struct{}),
	}
}

// path maps a key to its file, sharded by the leading digest byte.
func (c *Cache[V]) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+c.codec.Ext)
}

// Acquire looks up key. Three outcomes:
//
//   - hit (Memo or Disk): returns the value and a nil release.
//   - leader (Miss): the caller must compute the value, then call
//     release(v) to publish it, or release with the zero V (a nil blob
//     or pointer) to abort — on error or cancellation — so a waiter can
//     take over leadership. Release is once-guarded, so a deferred
//     abort after a publish is a no-op.
//   - follower: blocks until the leader releases, then resolves to one
//     of the above.
//
// A hit's value is shared; callers must treat it as read-only (Reader
// never mutates a blob).
func (c *Cache[V]) Acquire(key string) (v V, hit Hit, release func(V)) {
	for {
		c.mu.Lock()
		if v, ok := c.mem[key]; ok {
			c.hits++
			c.mu.Unlock()
			return v, Memo, nil
		}
		if flight, ok := c.flights[key]; ok {
			c.mu.Unlock()
			<-flight
			continue
		}
		done := make(chan struct{})
		c.flights[key] = done
		c.mu.Unlock()
		// The leader reads the disk outside the lock: a file read must
		// not serialize unrelated keys, and the flight already holds
		// this key's followers.
		if v, size, ok := c.loadDisk(key); ok {
			c.land(key, done, v, size, &c.hits)
			return v, Disk, nil
		}
		var once sync.Once
		return v, Miss, func(v V) {
			once.Do(func() { c.release(key, done, v) })
		}
	}
}

// release publishes the leader's value, or aborts on the zero V, and
// wakes all waiters. Waiters re-run the Acquire loop: after a publish
// they hit the memo; after an abort one of them becomes the new leader.
func (c *Cache[V]) release(key string, done chan struct{}, v V) {
	if reflect.ValueOf(&v).Elem().IsZero() {
		c.land(key, done, v, 0, nil)
		return
	}
	var blob []byte
	if c.codec.Encode != nil {
		blob = c.codec.Encode(key, v)
	}
	c.land(key, done, v, len(blob), &c.published)
	if blob != nil {
		// Persist outside the lock: disk latency must not serialize
		// unrelated keys. Write failures are non-fatal — the memo
		// already serves this process.
		c.storeDisk(key, blob)
	}
}

// land ends key's flight and wakes its waiters, first memoizing v (of
// sealed size size) and bumping *count unless count is nil (an abort).
// A key is memoized at most once: only its flight's leader lands it.
func (c *Cache[V]) land(key string, done chan struct{}, v V, size int, count *int) {
	c.mu.Lock()
	if count != nil {
		c.mem[key] = v
		c.bytes += size
		*count++
	}
	delete(c.flights, key)
	c.mu.Unlock()
	close(done)
}

// loadDisk fetches and decodes a persisted value, returning it with its
// file's size. Missing, unreadable, damaged or foreign files are misses
// (and later overwritten), never errors: the disk tier only
// accelerates.
func (c *Cache[V]) loadDisk(key string) (v V, size int, ok bool) {
	if c.dir == "" || len(key) < 2 || c.codec.Decode == nil {
		return v, 0, false
	}
	path := c.path(key)
	blob, err := os.ReadFile(path)
	if err != nil || Verify(blob) != nil {
		return v, 0, false
	}
	if v, ok = c.codec.Decode(key, blob); !ok {
		return v, 0, false
	}
	c.stamp(path) // the file proved its worth: prune it last
	return v, len(blob), true
}

// stamp sets path's mtime from the injected clock, the pruning order's
// verify-stamp. Best-effort: a failed Chtimes only costs eviction
// priority.
func (c *Cache[V]) stamp(path string) {
	if c.now != nil {
		t := time.Unix(0, c.now())
		os.Chtimes(path, t, t)
	}
}

// storeDisk persists a blob atomically (temp + rename) so concurrent
// readers — or a second process sharing the directory — never observe
// a torn file. A failed write leaves the value in memory only and is
// counted (WriteFailures).
func (c *Cache[V]) storeDisk(key string, blob []byte) {
	if c.dir == "" || len(key) < 2 {
		return
	}
	path := c.path(key)
	if err := writeAtomic(path, "."+key+".tmp-", blob); err != nil {
		c.mu.Lock()
		c.writeFailures++
		c.mu.Unlock()
		return
	}
	c.stamp(path)
	if c.maxBytes > 0 {
		c.prune()
	}
}

// writeAtomic writes blob to a temp file named by pattern beside path,
// then renames it over path; on any failure it removes the temp file.
func writeAtomic(path, pattern string, blob []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// prune removes least-recently-verified files until the directory's
// Ext bytes fit within maxBytes, turning the disk tier into an LRU
// tier. pruneMu keeps concurrent writers' walk-and-delete passes from
// interleaving, and a file deleted under a concurrent reader's feet is
// just a miss (ReadFile fails, Acquire elects a leader).
func (c *Cache[V]) prune() {
	c.pruneMu.Lock()
	defer c.pruneMu.Unlock()
	type file struct {
		path string
		size int64
		mod  time.Time
	}
	var files []file
	var total int64
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, c.codec.Ext) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		files = append(files, file{path: path, size: info.Size(), mod: info.ModTime()})
		total += info.Size()
		return nil
	})
	if total <= c.maxBytes {
		return
	}
	// Oldest verify-stamp first; ties break on path so two caches
	// pruning the same directory converge on the same victims.
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		if total <= c.maxBytes {
			break
		}
		if os.Remove(f.path) == nil {
			total -= f.size
		}
	}
}

// Len reports how many values are memoized in memory (testing and
// progress reporting).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Bytes reports the summed sealed size of the memoized values — for a
// Store, the blobs it holds: the store's in-process footprint, which
// grows by one blob per distinct checkpoint key for the life of the
// Store.
func (c *Cache[V]) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Hits reports how many Acquire calls resolved to an existing value
// (memory or disk) over the cache's lifetime.
func (c *Cache[V]) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Published reports how many values leaders computed and published —
// for a Store, the checkpoints this process captured. Unlike Len it
// excludes values loaded from disk.
func (c *Cache[V]) Published() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.published
}

// WriteFailures reports how many values the disk tier failed to
// persist (a directory it cannot create, a full or read-only disk, a
// rename onto an obstruction). Each such value lives in memory only,
// so a later process misses it.
func (c *Cache[V]) WriteFailures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeFailures
}

// KeyError annotates a checkpoint failure with its key for diagnostics.
func KeyError(key string, err error) error {
	return fmt.Errorf("ckpt %s: %w", key[:min(12, len(key))], err)
}
