// Package fixture exercises the mergeorder analyzer's third root: the
// importpath directive plants it in internal/tpar, the time-parallel
// segment-merge package, so merge-shaped methods here sit on the
// cross-worker combine path even without a call edge from runq or sim.
//
//ucplint:importpath ucp/internal/tpar
package fixture

// segAccum mimics a per-worker segment accumulator that (incorrectly)
// folds a float rate during the merge instead of deferring it to a
// segment-ordered reduction.
type segAccum struct {
	insts  uint64
	cycles uint64
	ipc    float64
}

// Merge combines two per-worker accumulators.
func (a *segAccum) Merge(b *segAccum) {
	a.insts += b.insts
	a.cycles += b.cycles
	a.ipc += b.ipc // want "order-sensitive float accumulation in merge method Merge"
}

// cellUnion is the correct shape: a disjoint index union with no
// arithmetic at all.
type cellUnion struct{ cells []*segAccum }

// Merge folds b's cells into a; cell sets are disjoint by construction.
func (a *cellUnion) Merge(b *cellUnion) {
	for i, c := range b.cells {
		if c != nil {
			a.cells[i] = c
		}
	}
}
