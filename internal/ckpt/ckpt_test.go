package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func sealed(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	w.Section("hdr")
	w.Uvarint(42)
	w.Varint(-7)
	w.Byte(0xab)
	w.Bool(true)
	w.I8(-3)
	w.U64s([]uint64{0, 1, 1 << 62, 12345})
	w.Sets(testSets, 2, 1<<63)
	w.U8s([]uint8{9, 8, 7})
	w.I8s([]int8{-1, 0, 1})
	w.Section("tail")
	return w.Seal()
}

// testSets is a three-set, two-way tag array with valid bit 1<<63: one
// full set, one half-full set, one empty set.
var testSets = []uint64{1<<63 | 5, 1 << 63, 1<<63 | 1<<40, 0, 0, 0}

func TestCodecRoundTrip(t *testing.T) {
	blob := sealed(t)
	r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	r.Section("hdr")
	if v := r.Uvarint(); v != 42 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Byte(); v != 0xab {
		t.Fatalf("Byte = %#x", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if v := r.I8(); v != -3 {
		t.Fatalf("I8 = %d", v)
	}
	u64 := make([]uint64, 4)
	r.U64sInto(u64)
	if u64[2] != 1<<62 || u64[3] != 12345 {
		t.Fatalf("U64sInto = %v", u64)
	}
	sets := []uint64{7, 7, 7, 7, 7, 7}
	r.SetsInto(sets, 2, 1<<63)
	if !slices.Equal(sets, testSets) {
		t.Fatalf("SetsInto = %#x, want %#x", sets, testSets)
	}
	u8 := make([]uint8, 3)
	r.U8sInto(u8)
	if u8[0] != 9 || u8[2] != 7 {
		t.Fatalf("U8sInto = %v", u8)
	}
	i8 := make([]int8, 3)
	r.I8sInto(i8)
	if i8[0] != -1 || i8[2] != 1 {
		t.Fatalf("I8sInto = %v", i8)
	}
	r.Section("tail")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCodecDeterministic pins byte-for-byte reproducibility: identical
// writes must seal to identical blobs (checkpoint reuse depends on it).
func TestCodecDeterministic(t *testing.T) {
	if !bytes.Equal(sealed(t), sealed(t)) {
		t.Fatal("identical writes sealed to different blobs")
	}
}

// TestOpenRejectsCorruption flips every byte of a sealed blob and
// truncates it at every length: Open must reject all of them (the
// trailing digest covers the entire envelope and payload).
func TestOpenRejectsCorruption(t *testing.T) {
	blob := sealed(t)
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0xff
		if _, err := Open(bad); err == nil {
			t.Fatalf("blob with byte %d flipped opened without error", i)
		}
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := Open(blob[:cut]); err == nil {
			t.Fatalf("blob truncated to %d/%d bytes opened without error", cut, len(blob))
		}
	}
}

// TestOpenRejectsVersionSkew rebuilds the envelope with a bumped
// version (and a correct digest): Open must reject it by version, the
// way a blob written by a future format revision would present.
func TestOpenRejectsVersionSkew(t *testing.T) {
	blob := append([]byte(nil), sealed(t)...)
	blob[4]++ // version byte (little-endian u32 at offset 4)
	body := blob[:len(blob)-32]
	w := &Writer{buf: append([]byte(nil), body...)}
	reSealed := w.Seal()
	_, err := Open(reSealed)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skewed blob: err = %v", err)
	}
}

// TestSetsEncoding pins what the set codec costs: each set is its
// valid-way count plus its stripped tags, so an empty way takes no
// bytes and a valid one takes its tag's uvarint, not the 10 bytes a
// word carrying bit 63 would. The callers' tests (internal/cache,
// internal/btb) feed SetsInto the sections Sets cannot write; here a
// tag above a low valid bit and a truncated section must fail too.
func TestSetsEncoding(t *testing.T) {
	w := &Writer{}
	w.Sets(testSets, 2, 1<<63)
	// entries 6; set 0: count 2, tags 5 and 0; set 1: count 1, tag
	// 1<<40 (6 bytes); set 2: count 0.
	if want := 1 + 3 + 7 + 1; w.Len() != want {
		t.Errorf("three sets encode to %d bytes, want %d", w.Len(), want)
	}
	for _, tc := range []struct {
		name string
		sets [][]uint64
		want string
	}{
		{"higher bit", [][]uint64{{}, {1 << 41}}, "set 1: tag 0x20000000000 carries the valid bit 0x100000000"},
		{"truncated", [][]uint64{{1}}, "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWriter()
			w.Uvarint(4)
			for _, set := range tc.sets {
				w.Uvarint(uint64(len(set)))
				for _, tag := range set {
					w.Uvarint(tag)
				}
			}
			r, err := Open(w.Seal())
			if err != nil {
				t.Fatal(err)
			}
			r.SetsInto(make([]uint64, 4), 2, 1<<32)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
				t.Fatalf("err %v, want one containing %q", r.Err(), tc.want)
			}
		})
	}
}

// TestReaderStickyErrors checks section skew and length mismatches fail
// descriptively and stick.
func TestReaderStickyErrors(t *testing.T) {
	w := NewWriter()
	w.Section("bp")
	w.U64s([]uint64{1, 2, 3})
	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	r.Section("cache") // skew: blob holds "bp"
	if r.Err() == nil || !strings.Contains(r.Err().Error(), `section "cache"`) {
		t.Fatalf("section skew err = %v", r.Err())
	}
	// Sticky: further reads keep the first error.
	_ = r.Uvarint()
	if !strings.Contains(r.Err().Error(), `section "cache"`) {
		t.Fatalf("error not sticky: %v", r.Err())
	}

	r2, err := Open(sealedU64s([]uint64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 4) // geometry mismatch
	r2.U64sInto(dst)
	if r2.Err() == nil || !strings.Contains(r2.Err().Error(), "length 3, want 4") {
		t.Fatalf("length mismatch err = %v", r2.Err())
	}
}

func sealedU64s(v []uint64) []byte {
	w := NewWriter()
	w.U64s(v)
	return w.Seal()
}

// TestCloseRejectsTrailing pins the exact-consumption contract.
func TestCloseRejectsTrailing(t *testing.T) {
	r, err := Open(sealedU64s([]uint64{5}))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Close with unread payload: err = %v", err)
	}
}

func testKey(i int) string {
	return fmt.Sprintf("%02x%060x", i, i)
}

// acquire is Store.Acquire with the hit reported as a bool.
func acquire(s *Store, key string) ([]byte, bool, func([]byte)) {
	blob, hit, release := s.Acquire(key)
	return blob, hit != Miss, release
}

// TestStoreSingleFlight hammers one key from many goroutines: exactly
// one leader computes, everyone observes the same blob.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore("")
	key := testKey(1)
	var computes atomic.Int32
	const goroutines = 16
	blobs := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blob, ok, release := acquire(s, key)
			if !ok {
				computes.Add(1)
				w := NewWriter()
				w.Uvarint(777)
				blob = w.Seal()
				release(blob)
			}
			blobs[g] = blob
		}(g)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d leaders computed, want 1", n)
	}
	for g := range blobs {
		if !bytes.Equal(blobs[g], blobs[0]) {
			t.Fatalf("goroutine %d observed a different blob", g)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d blobs, want 1", s.Len())
	}
}

// TestStoreAbortHandsOver: a leader that releases nil must hand
// leadership to a waiter instead of wedging or caching nothing forever.
func TestStoreAbortHandsOver(t *testing.T) {
	s := NewStore("")
	key := testKey(2)

	_, ok, release := acquire(s, key)
	if ok {
		t.Fatal("fresh store reported a hit")
	}

	got := make(chan []byte)
	go func() {
		blob, ok2, release2 := acquire(s, key) // blocks until the abort
		if !ok2 {
			w := NewWriter()
			w.Uvarint(1)
			blob = w.Seal()
			release2(blob)
		}
		got <- blob
	}()

	release(nil) // abort: the waiter takes over
	blob := <-got
	if blob == nil {
		t.Fatal("successor produced no blob")
	}
	if b, ok3, _ := acquire(s, key); !ok3 || !bytes.Equal(b, blob) {
		t.Fatal("successor's blob was not published")
	}
	if s.Bytes() != len(blob) {
		t.Fatalf("Bytes %d, want the published blob's %d (an abort holds nothing)", s.Bytes(), len(blob))
	}

	// Double release must be a no-op, not a double-close panic.
	release(nil)
}

// TestStoreDisk checks persistence across Store instances, rejection of
// corrupt files, and atomic-write file hygiene.
func TestStoreDisk(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3)
	w := NewWriter()
	w.Uvarint(99)
	blob := w.Seal()

	s1 := NewStore(dir)
	if _, ok, release := acquire(s1, key); ok {
		t.Fatal("fresh dir reported a hit")
	} else {
		release(blob)
	}
	if _, ok, _ := acquire(s1, key); !ok || s1.Bytes() != len(blob) {
		t.Fatalf("memo hit %v, Bytes %d after one %d-byte capture", ok, s1.Bytes(), len(blob))
	}

	// A new store over the same dir must hit from disk.
	s2 := NewStore(dir)
	got, ok, _ := acquire(s2, key)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatal("persisted blob not served to a second store")
	}
	if s2.Bytes() != len(blob) {
		t.Fatalf("Bytes %d after a %d-byte disk hit", s2.Bytes(), len(blob))
	}

	// Corrupt the file: a third store must miss, not serve garbage.
	path := s2.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(dir)
	if _, ok, release := acquire(s3, key); ok {
		t.Fatal("corrupt blob served as a hit")
	} else {
		release(blob) // heals the file
	}
	s4 := NewStore(dir)
	if _, ok, _ := acquire(s4, key); !ok {
		t.Fatal("healed blob not served")
	}

	// No temp-file litter.
	entries, err := filepath.Glob(filepath.Join(dir, key[:2], ".*tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestStoreStaleVersionHeals leaves a blob sealed by the previous
// envelope version where a key's checkpoint lives: a store must treat
// it as a miss, and the leader's publish must overwrite it so the next
// store hits.
func TestStoreStaleVersionHeals(t *testing.T) {
	dir := t.TempDir()
	key := testKey(5)
	stale := &Writer{buf: binary.LittleEndian.AppendUint32([]byte(envMagic), envVersion-1)}
	stale.Uvarint(99)
	fresh := NewWriter()
	fresh.Uvarint(99)
	blob := fresh.Seal()
	s := NewStore(dir)
	if err := os.MkdirAll(filepath.Dir(s.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), stale.Seal(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, release := acquire(s, key); ok {
		t.Fatal("blob of the previous envelope version served as a hit")
	} else {
		release(blob)
	}
	got, ok, _ := acquire(NewStore(dir), key)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("publish did not overwrite the stale blob (hit=%v)", ok)
	}
}

// pruneBlob returns a sealed blob of fixed size so the byte-budget
// arithmetic in the prune tests is exact.
func pruneBlob() []byte {
	w := NewWriter()
	w.U64s(make([]uint64, 32))
	return w.Seal()
}

// TestStorePruneRacesCapture hammers a byte-bounded shared directory
// from many stores at once — every capture triggers a prune, every
// restore is a disk load racing those prunes (run under -race by
// check.sh). The contract under test: a prune racing a single-flight
// capture or a concurrent reader must degrade to a miss that heals
// through the ordinary leader path, never to a torn or corrupt blob.
func TestStorePruneRacesCapture(t *testing.T) {
	dir := t.TempDir()
	blob := pruneBlob()
	// Room for two blobs: with eight keys in flight, almost every
	// publish pushes the directory over budget and prunes under the
	// other goroutines' feet.
	budget := 2*int64(len(blob)) + int64(len(blob))/2

	const keys = 8
	const workers = 4
	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// A fresh store every round shares only the directory, so
				// each hit is a disk load + verify racing the other
				// stores' prunes rather than an in-memory memo hit.
				s := NewStoreLimit(dir, budget, nil)
				key := testKey(30 + (w+r)%keys)
				b, ok, release := acquire(s, key)
				if ok {
					if err := Verify(b); err != nil {
						t.Errorf("hit served a corrupt blob: %v", err)
					}
					continue
				}
				release(pruneBlob())
			}
		}(w)
	}
	wg.Wait()

	// Whatever the interleaving, the directory holds only intact blobs:
	// every key either misses (and heals through a new leader) or
	// serves a blob that verifies.
	fresh := NewStoreLimit(dir, 0, nil)
	for i := 30; i < 30+keys; i++ {
		if b, ok, release := acquire(fresh, testKey(i)); ok {
			if err := Verify(b); err != nil {
				t.Errorf("key %d corrupt after the race: %v", i, err)
			}
		} else {
			release(nil)
		}
	}
}

// storeBlob publishes blob under key through the normal leader path.
func storeBlob(t *testing.T, s *Store, key string, blob []byte) {
	t.Helper()
	_, ok, release := acquire(s, key)
	if ok {
		t.Fatalf("key %s unexpectedly present before store", key[:8])
	}
	release(blob)
}

// TestStorePruneEvictsLeastRecentlyVerified: with a byte budget, the
// store evicts the blob whose verify-stamp is oldest — a blob that
// recently proved its worth on a disk load survives over an older,
// never-reloaded one.
func TestStorePruneEvictsLeastRecentlyVerified(t *testing.T) {
	dir := t.TempDir()
	var clock int64
	now := func() int64 { clock++; return clock * int64(1e9) }
	blob := pruneBlob()
	budget := 3*int64(len(blob)) + int64(len(blob))/2 // room for 3 blobs

	s := NewStoreLimit(dir, budget, now)
	for i := 10; i <= 12; i++ {
		storeBlob(t, s, testKey(i), pruneBlob())
	}

	// Re-verify key 10 from a second store: its stamp moves past keys
	// 11 and 12, so it must survive the next prune.
	s2 := NewStoreLimit(dir, budget, now)
	if _, ok, _ := acquire(s2, testKey(10)); !ok {
		t.Fatal("persisted blob not served before prune")
	}

	// A fourth blob pushes the directory over budget: exactly one blob
	// — key 11, the least recently verified — must go.
	storeBlob(t, s2, testKey(13), pruneBlob())

	fresh := NewStoreLimit(dir, 0, nil)
	for _, i := range []int{10, 12, 13} {
		if _, ok, release := acquire(fresh, testKey(i)); !ok {
			release(nil)
			t.Errorf("key %d evicted, want survivor", i)
		}
	}
	if _, ok, release := acquire(fresh, testKey(11)); ok {
		t.Error("least-recently-verified blob survived the prune")
	} else {
		release(nil)
	}
}

// TestStorePruneUnboundedAndMiss: a zero budget never prunes, a pruned
// key is an ordinary miss (Acquire elects a leader and the key heals),
// and a survivor corrupted after the prune is also just a miss.
func TestStorePruneUnboundedAndMiss(t *testing.T) {
	dir := t.TempDir()
	blob := pruneBlob()

	unbounded := NewStoreLimit(dir, 0, nil)
	for i := 20; i < 26; i++ {
		storeBlob(t, unbounded, testKey(i), pruneBlob())
	}
	check := NewStoreLimit(dir, 0, nil)
	for i := 20; i < 26; i++ {
		if _, ok, release := acquire(check, testKey(i)); !ok {
			release(nil)
			t.Fatalf("unbounded store evicted key %d", i)
		}
	}

	// Shrink the budget to one blob: the next write prunes all but the
	// newest.
	tight := NewStoreLimit(dir, int64(len(blob))+int64(len(blob))/2, nil)
	storeBlob(t, tight, testKey(26), pruneBlob())

	after := NewStoreLimit(dir, 0, nil)
	_, survivorOK, _ := acquire(after, testKey(26))
	if !survivorOK {
		t.Fatal("newest blob evicted by its own prune")
	}
	// A pruned key heals through the ordinary leader path.
	if b, ok, release := acquire(after, testKey(20)); ok {
		t.Fatalf("pruned key served a blob: %d bytes", len(b))
	} else {
		release(pruneBlob())
	}

	// Corrupting the survivor after the prune degrades it to a miss,
	// exactly like pre-prune corruption.
	path := after.path(testKey(26))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	post := NewStoreLimit(dir, 0, nil)
	if _, ok, release := acquire(post, testKey(26)); ok {
		t.Fatal("corrupt post-prune blob served as a hit")
	} else {
		release(nil)
	}
}

// TestSealExactSizeAndStoreBytes checks that a sealed blob carries no
// append slack (a 400K-instruction srv203 capture once held 483,328
// bytes of array for 394,012 of blob) and that Store.Bytes counts
// exactly the bytes the memo holds.
func TestSealExactSizeAndStoreBytes(t *testing.T) {
	s := NewStore("")
	want := 0
	for i := 0; i < 3; i++ {
		w := NewWriter()
		w.Section("big")
		for j := 0; j < 10_000*(i+1); j++ {
			w.Uvarint(uint64(j) << 20)
		}
		blob := w.Seal()
		if cap(blob) != len(blob) {
			t.Fatalf("blob %d: cap %d, len %d", i, cap(blob), len(blob))
		}
		_, hit, release := acquire(s, fmt.Sprintf("%064d", i))
		if hit {
			t.Fatalf("blob %d: unexpected hit", i)
		}
		release(blob)
		want += len(blob)
	}
	held := 0
	s.mu.Lock()
	for _, b := range s.mem {
		held += cap(b)
	}
	s.mu.Unlock()
	if held != want || s.Bytes() != held {
		t.Fatalf("memo holds %d bytes of array, Store.Bytes reports %d, sealed %d", held, s.Bytes(), want)
	}
}
