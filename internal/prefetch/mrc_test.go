package prefetch

import (
	"fmt"
	"testing"

	"ucp/internal/lru/lrutest"
	"ucp/internal/rng"
)

// TestMRCMatchesReferenceLRU drives random Lookup and Record streams
// through an MRC and the stamp-based reference as one fully-associative
// set. After every access the two must agree on the hit and on the
// recency order of the resident streams.
func TestMRCMatchesReferenceLRU(t *testing.T) {
	for _, entries := range []int{1, 5, 16} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			m := NewMRC(MRCConfig{Entries: entries, OpsPerEntry: 64})
			ref := lrutest.New(1, entries, nil)
			r := rng.New(uint64(entries))
			for i := range 10_000 {
				tag := r.Uint64n(uint64(3 * entries))
				if r.Bool(0.5) {
					if got, want := m.Lookup(tag), ref.Touch(tag); got != want {
						t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", i, tag, got, want)
					}
				} else {
					if !ref.Touch(tag) {
						ref.Fill(tag)
					}
					m.Record(tag)
				}
				err := lrutest.Check(ref, tag, m.tags, func(tag uint64) (uint64, bool) { return tag, true })
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
	}
}
