package lru

import (
	"slices"
	"testing"
)

// wayCounts are the set sizes in use: the caches (8, 12, 20), the TLBs
// (6, 8, 16), the BTB and µ-op cache (8), and the MRC's one set at the
// four budgets of Fig. 16 (65, 130, 261 and 523 entries), and a
// one-way set.
var wayCounts = []int{1, 6, 8, 12, 16, 20, 65, 130, 261, 523}

// entry stands in for the payload structs that move with their tags.
type entry struct {
	a uint64
	b [3]uint16
}

// refToFront is the copy-based kernel ToFront replaced.
func refToFront[T any](set []T, w int, v T) {
	copy(set[1:w+1], set[:w])
	set[0] = v
}

// checkToFront runs ToFront and refToFront on equal sets of distinct
// values for every way w of every set size in use, with a new value and
// with the set's own way (a hit), and compares the sets.
func checkToFront[T comparable](t *testing.T, name string, val func(i int) T) {
	for _, ways := range wayCounts {
		for w := 0; w < ways; w++ {
			for _, hit := range []bool{false, true} {
				got, want := make([]T, ways), make([]T, ways)
				for i := range got {
					got[i], want[i] = val(i), val(i)
				}
				v := val(ways)
				if hit {
					v = got[w]
				}
				ToFront(got, w, v)
				refToFront(want, w, v)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d ways, w=%d, hit=%v: got %v, want %v", name, ways, w, hit, got, want)
				}
			}
		}
	}
}

// TestToFrontMatchesCopy checks the element loop against a copy-based
// reference for every way of every set size in use, on the element
// types that move: 32-bit and 64-bit tag words and payload structs.
func TestToFrontMatchesCopy(t *testing.T) {
	checkToFront(t, "uint32", func(i int) uint32 { return 1<<31 | uint32(i) })
	checkToFront(t, "uint64", func(i int) uint64 { return 1<<63 | uint64(i)<<3 })
	checkToFront(t, "struct", func(i int) entry { return entry{uint64(i) * 7, [3]uint16{uint16(i), 1, 2}} })
}

// checkLookup runs Lookup on sets of distinct values for every way of
// every set size in use, and for a value the set does not hold, and
// compares the set, the hit and the evicted way with a scan followed
// by the copy-based ToFront.
func checkLookup[T comparable](t *testing.T, name string, val func(i int) T) {
	var zero T
	for _, ways := range wayCounts {
		for w := 0; w <= ways; w++ { // w == ways: a miss
			got, want := make([]T, ways), make([]T, ways)
			for i := range got {
				got[i], want[i] = val(i), val(i)
			}
			v := val(ways)
			if w < ways {
				v = got[w]
			}
			wantHit, wantEvicted := w < ways, zero
			if !wantHit {
				wantEvicted = want[ways-1]
			}
			refToFront(want, min(w, ways-1), v)
			hit, evicted := Lookup(got, v)
			if hit != wantHit || evicted != wantEvicted || !slices.Equal(got, want) {
				t.Fatalf("%s: %d ways, v at %d: hit %v evicted %v set %v, want %v %v %v",
					name, ways, w, hit, evicted, got, wantHit, wantEvicted, want)
			}
		}
	}
}

// TestLookupMatchesScanAndCopy checks the one-pass hit scan and move
// against a scan and the copy-based move, on the tag word types.
func TestLookupMatchesScanAndCopy(t *testing.T) {
	checkLookup(t, "uint32", func(i int) uint32 { return 1<<31 | uint32(i) })
	checkLookup(t, "uint64", func(i int) uint64 { return 1<<63 | uint64(i)<<3 })
}
