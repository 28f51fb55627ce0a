// Package lru holds the one replacement rule of every set-associative
// structure in the simulator: a set is kept in recency order, most
// recently used way first, so the order is its whole LRU state. A hit
// on way w calls ToFront(set, w, set[w]); a fill evicts the last way
// with ToFront(set, len(set)-1, v). That last way is the one per-way
// stamps would pick (an empty way first, else the least recently used)
// as long as a set's valid ways are a prefix: sets fill front to back,
// and a structure that invalidates a way must shift the ways behind it
// forward. Payloads in an array parallel to the tags take the same
// moves.
package lru

// ToFront makes way w of a recency-ordered set its most recent way,
// holding v: the ways in front of it move back one slot.
func ToFront[T any](set []T, w int, v T) {
	copy(set[1:w+1], set[:w])
	set[0] = v
}
