// Package lrutest is a reference set-associative LRU directory for the
// tests of the structures that keep their sets in recency order
// (package lru): the caches and TLBs, the BTB, the µ-op cache and the
// MRC. It shares no code with them. Every way holds a key and an LRU
// stamp from a clock that advances on every Touch; stamp 0 marks an
// empty way. A fill takes the first empty way, else the way with the
// oldest stamp.
package lrutest

import (
	"cmp"
	"fmt"
	"slices"
)

// Sets is the reference directory.
type Sets struct {
	sets, ways   int
	setOf        func(key uint64) int
	keys, stamps []uint64 // sets × ways
	clock        uint64
}

// New returns an empty reference of sets × ways. setOf maps a key to
// its set; nil means key mod sets.
func New(sets, ways int, setOf func(key uint64) int) *Sets {
	if setOf == nil {
		setOf = func(key uint64) int { return int(key % uint64(sets)) }
	}
	return &Sets{sets: sets, ways: ways, setOf: setOf,
		keys: make([]uint64, sets*ways), stamps: make([]uint64, sets*ways)}
}

// span returns the index range of key's set in keys and stamps.
func (r *Sets) span(key uint64) (lo, hi int) {
	lo = r.setOf(key) * r.ways
	return lo, lo + r.ways
}

// find returns the index of the way holding key, or -1.
func (r *Sets) find(key uint64) int {
	lo, hi := r.span(key)
	for w := lo; w < hi; w++ {
		if r.stamps[w] != 0 && r.keys[w] == key {
			return w
		}
	}
	return -1
}

// Resident reports whether key is held, with no recency effect.
func (r *Sets) Resident(key uint64) bool { return r.find(key) >= 0 }

// Touch advances the clock and looks key up, restamping it on a hit.
func (r *Sets) Touch(key uint64) bool {
	r.clock++
	w := r.find(key)
	if w >= 0 {
		r.stamps[w] = r.clock
	}
	return w >= 0
}

// Fill installs key, which must not be resident, stamped with the
// current clock, and returns the key it evicted, if any.
func (r *Sets) Fill(key uint64) (evicted uint64, ok bool) {
	lo, hi := r.span(key)
	victim := lo
	for w := lo + 1; w < hi; w++ {
		if r.stamps[w] < r.stamps[victim] {
			victim = w
		}
	}
	evicted, ok = r.keys[victim], r.stamps[victim] != 0
	r.keys[victim], r.stamps[victim] = key, r.clock
	return evicted, ok
}

// Recency returns the resident keys of key's set, most recently used
// first.
func (r *Sets) Recency(key uint64) []uint64 {
	lo, hi := r.span(key)
	var ways []int
	for w := lo; w < hi; w++ {
		if r.stamps[w] != 0 {
			ways = append(ways, w)
		}
	}
	slices.SortFunc(ways, func(x, y int) int { return cmp.Compare(r.stamps[y], r.stamps[x]) })
	out := make([]uint64, len(ways))
	for i, w := range ways {
		out[i] = r.keys[w]
	}
	return out
}

// Check requires set, the ways of key's set in the structure under
// test, to hold exactly the reference's resident keys in recency order,
// followed only by empty ways. decode maps a way to its key and
// validity.
func (r *Sets) Check(key uint64, set []uint64, decode func(way uint64) (key uint64, valid bool)) error {
	want := r.Recency(key)
	if len(set) < len(want) {
		return fmt.Errorf("set %d has %d ways, reference holds %d keys %#x", r.setOf(key), len(set), len(want), want)
	}
	for w, v := range set {
		got, valid := decode(v)
		switch {
		case w < len(want) && (!valid || got != want[w]):
			return fmt.Errorf("set %d way %d holds %#x (valid=%v), reference recency order %#x", r.setOf(key), w, got, valid, want)
		case w >= len(want) && valid:
			return fmt.Errorf("set %d way %d holds %#x past the reference's %d resident keys", r.setOf(key), w, got, len(want))
		}
	}
	return nil
}
