package recycle

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// noGC stops automatic collections for the rest of the test, so no
// collection can drop a free array between a Free and a Make.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// held returns how many free arrays of element type T and length n the
// free lists hold.
func held[T any](n int) int {
	mu.Lock()
	defer mu.Unlock()
	return len(free[key{(*T)(nil), n}])
}

// TestMakeReturnsZeroedRecycledArray checks that Make hands back the
// array Free received, zeroed, and only for the same type and length.
func TestMakeReturnsZeroedRecycledArray(t *testing.T) {
	noGC(t)
	a := Make[uint64](1000)
	for i := range a {
		a[i] = uint64(i) + 1
	}
	Free(a)
	if b := Make[int64](1000); unsafe.Pointer(&b[0]) == unsafe.Pointer(&a[0]) {
		t.Fatal("a []uint64 came back as []int64")
	}
	if b := Make[uint64](999); len(b) != 999 {
		t.Fatalf("Make(999) has length %d", len(b))
	}
	b := Make[uint64](1000)
	if &b[0] != &a[0] {
		t.Fatal("Make did not return the freed array")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled element %d = %d, want 0", i, v)
		}
	}
	if c := Make[uint64](1000); &c[0] == &b[0] {
		t.Fatal("one freed array was handed out twice")
	}
	Free[uint64](nil) // ignored
}

// TestFreeListBounded checks the count bound: at most GOMAXPROCS free
// arrays per type and length, whatever is freed.
func TestFreeListBounded(t *testing.T) {
	noGC(t)
	type elem struct{ a, b uint32 }
	limit := runtime.GOMAXPROCS(0)
	for i := 0; i < limit+5; i++ {
		Free(make([]elem, 64))
	}
	if n := held[elem](64); n != limit {
		t.Fatalf("free list holds %d arrays, want GOMAXPROCS = %d", n, limit)
	}
	for i := 0; i < limit; i++ {
		Make[elem](64)
	}
	if n := held[elem](64); n != 0 {
		t.Fatalf("free list holds %d arrays after %d Makes, want 0", n, limit)
	}
}

// TestCollectionDropsFreeArrays checks the time bound: a collection
// that completes after a Free drops the array, so an idle process
// keeps nothing.
func TestCollectionDropsFreeArrays(t *testing.T) {
	type elem struct{ a [3]uint16 }
	Free(make([]elem, 77))
	if n := held[elem](77); n != 1 {
		t.Fatalf("free list holds %d arrays after a Free, want 1", n)
	}
	// The drop runs in a finalizer, some time after the collection.
	for i := 0; held[elem](77) != 0; i++ {
		if i == 1000 {
			t.Fatal("free array survived 1000 collections")
		}
		runtime.GC()
		runtime.Gosched()
	}
}
