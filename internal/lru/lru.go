// Package lru holds the one replacement rule of every set-associative
// structure in the simulator: a set is kept in recency order, most
// recently used way first, so the order is its whole LRU state. A hit
// on way w calls ToFront(set, w, set[w]); a fill evicts the last way
// with ToFront(set, len(set)-1, v). That last way is the one per-way
// stamps would pick (an empty way first, else the least recently used)
// as long as a set's valid ways are a prefix: sets fill front to back,
// and a structure that invalidates a way must shift the ways behind it
// forward. Payloads in an array parallel to the tags take the same
// moves. Lookup is a hit scan and ToFront in one pass, for a structure
// that fills on every miss and keeps no payload.
package lru

// ToFront makes way w of a recency-ordered set its most recent way,
// holding v: the ways in front of it move back one slot. They move one
// element at a time: every cache, TLB, BTB and µ-op cache set has 6 to
// 20 ways, too few for copy's call into memmove to pay (the MRC's one
// fully associative set is longer, but it is off the warming paths).
// A hit on way 0 (w = 0) only stores v.
func ToFront[T any](set []T, w int, v T) {
	_ = set[w]
	for i := w; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = v
}

// Lookup finds v in a recency-ordered set and makes it the most recent
// way, as a hit on it or a fill of it does, in one pass: each way it
// scans past moves back one slot as it is read. It reports whether v
// was present and, when it was not, the way that fell off the end. A
// hit on way 0 stores nothing.
func Lookup[T comparable](set []T, v T) (hit bool, evicted T) {
	prev := set[0]
	if prev == v {
		return true, evicted
	}
	set[0] = v
	for i := 1; i < len(set); i++ {
		x := set[i]
		set[i] = prev
		if x == v {
			return true, evicted
		}
		prev = x
	}
	return false, prev
}
