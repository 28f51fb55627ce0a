// Package fixture exercises the hotalloc analyzer: functions annotated
// //ucplint:hotpath must stay allocation-free, directly and through
// every module callee.
package fixture

// Lookup is a hot inner-loop function that allocates three ways.
//
//ucplint:hotpath
func Lookup(table []uint64, key uint64) uint64 {
	seen := map[uint64]bool{} // want "allocation in //ucplint:hotpath function Lookup: allocates a map literal"
	buf := make([]uint64, 8)  // want "allocation in //ucplint:hotpath function Lookup: calls make"
	buf[0] = key
	seen[key] = true
	grow(buf) // want "calls grow, which allocates"
	return table[key%uint64(len(table))]
}

func grow(xs []uint64) []uint64 {
	return appendOne(xs)
}

func appendOne(xs []uint64) []uint64 {
	return append(xs, 0)
}

// boxer takes an interface; handing it a concrete value boxes.
type boxer struct{}

func (boxer) accept(v any) {}

// Boxes passes a concrete int into an interface parameter.
//
//ucplint:hotpath
func Boxes(b boxer, key int) {
	b.accept(key) // want "boxes a int into an interface argument"
}

// put stores v at index i of s.
func put[T any](s []T, i int, v T) { s[i] = v }

// Generic hands a concrete value to a type parameter whose constraint
// is any: it is passed as itself, not boxed.
//
//ucplint:hotpath
func Generic(s []uint64, i int) {
	put(s, 0, s[i])
}

// Closes returns a capturing closure.
//
//ucplint:hotpath
func Closes(x int) func() int {
	return func() int { return x } // want "creates a closure"
}

// Clean is a genuinely allocation-free hot function.
//
//ucplint:hotpath
func Clean(table []uint64, i int) uint64 {
	if i < 0 || i >= len(table) {
		return 0
	}
	return table[i]
}

// ColdBranch documents a sanctioned allocation with a named ignore.
//
//ucplint:hotpath
func ColdBranch(table []uint64) []uint64 {
	//ucplint:ignore hotalloc // deliberate: grows once on the cold path
	return append(table, 0)
}
