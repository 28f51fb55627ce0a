// Package recycle hands large arrays from one simulated machine to the
// next. A Table II machine's tables (a 30 MiB LLC's tags, a 64K-entry
// BTB, the predictors) come to about 3.4 MB, nearly all a job allocates,
// and each job's machine becomes garbage when the job ends; recycling
// the arrays keeps that churn out of the heap.
//
// Make and Free are the only entry points. Make returns a zeroed slice,
// indistinguishable from make; Free gives one back. The free lists are
// keyed by element type and length, and every array comes back zeroed,
// so a machine built on recycled arrays holds exactly the state of one
// built on fresh ones.
//
// Reuse is reliable: the free lists are shared by every goroutine under
// one mutex, so the next build on any worker finds a released array
// (sync.Pool hides an array put on one processor from a get on
// another). Retention is bounded twice over. A free list keeps at most
// GOMAXPROCS arrays, as many as concurrent workers can use at once.
// And a free array lasts until the end of the next garbage collection:
// then it is dropped and the collection after frees it, so an idle
// process gives its machines back.
package recycle

import (
	"runtime"
	"runtime/metrics"
	"sync"
)

// key names a free list: a nil *T stands for the element type.
type key struct {
	elem any
	n    int
}

// freed is a free array and the number of completed collections when
// it was freed.
type freed struct {
	s     any
	cycle uint64
}

var (
	mu   sync.Mutex
	free = map[key][]freed{}
)

// Make returns a zeroed slice of n elements, recycled when Free has
// handed one of that type and length back.
//
//ucplint:guarded
func Make[T any](n int) []T {
	k := key{(*T)(nil), n}
	mu.Lock()
	l := free[k]
	if len(l) == 0 {
		mu.Unlock()
		return make([]T, n)
	}
	s := l[len(l)-1].s.([]T)
	l[len(l)-1] = freed{}
	free[k] = l[:len(l)-1]
	mu.Unlock()
	clear(s)
	return s
}

// Free hands s, a slice from Make, back for a later Make; the caller
// must not touch it afterwards. An empty s is ignored, and so is one
// whose free list already holds GOMAXPROCS arrays.
//
//ucplint:guarded
func Free[T any](s []T) {
	if len(s) == 0 {
		return
	}
	k := key{(*T)(nil), len(s)}
	c := gcCycles()
	mu.Lock()
	if l := free[k]; len(l) < runtime.GOMAXPROCS(0) {
		free[k] = append(l, freed{s, c})
	}
	mu.Unlock()
}

// gcCycles returns the number of completed garbage collections.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// dropStale drops every free array freed before the latest completed
// collection.
//
//ucplint:guarded
func dropStale() {
	c := gcCycles()
	mu.Lock()
	defer mu.Unlock()
	for k, l := range free {
		kept := l[:0]
		for _, f := range l {
			if f.cycle >= c {
				kept = append(kept, f)
			}
		}
		clear(l[len(kept):])
		if len(kept) == 0 {
			delete(free, k)
		} else {
			free[k] = kept
		}
	}
}

// gcNotice carries the finalizer that runs once per collection. It
// holds a pointer so the allocator never packs it with other objects,
// which would delay its finalizer.
type gcNotice struct{ _ *byte }

func init() { armGCNotice() }

// armGCNotice allocates a notice that, once a collection finds it
// unreachable, drops the stale free arrays and arms the next one.
func armGCNotice() {
	runtime.SetFinalizer(&gcNotice{}, func(*gcNotice) {
		dropStale()
		armGCNotice()
	})
}
