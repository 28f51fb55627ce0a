package uopcache

import (
	"fmt"
	"testing"

	"ucp/internal/isa"
	"ucp/internal/lru/lrutest"
	"ucp/internal/rng"
)

// TestMatchesReferenceLRU drives random Lookup, Probe and Insert
// (demand and prefetch) streams through a µ-op cache and the
// stamp-based reference over entry start PCs. After every access the
// two must agree on the hit, the stats, the touched set's recency
// order, and each way's payload.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{4, 4}, {3, 2}, {1, 8}, {8, 1}, {5, 8},
	} {
		t.Run(fmt.Sprintf("sets=%d/ways=%d", g.sets, g.ways), func(t *testing.T) {
			u := New(Config{Ops: g.sets * g.ways * 8, OpsPerEntry: 8, Ways: g.ways, MaxBranches: 2, Banks: 2})
			if u.sets != g.sets {
				t.Fatalf("built %d sets, want %d", u.sets, g.sets)
			}
			sets := uint64(g.sets)
			ref := lrutest.New(g.sets, g.ways, func(pc uint64) int { return int(pc / isa.EntryBytes % sets) })
			payload := map[uint64]Entry{} // resident start PC → entry
			var want Stats
			r := rng.New(uint64(g.sets*100 + g.ways))
			for i := range 20_000 {
				pc := r.Uint64n(sets*uint64(g.ways))*isa.EntryBytes + r.Uint64n(3)*isa.InstBytes
				switch op := r.Intn(20); {
				case op < 7:
					want.Lookups++
					hit := ref.Touch(pc)
					e, got := u.Lookup(pc)
					if got != hit {
						t.Fatalf("step %d: Lookup(%#x) hit %v, reference %v", i, pc, got, hit)
					}
					if hit {
						want.Hits++
						p := payload[pc]
						p.Used = true
						if p.Prefetched {
							want.PrefetchUsed++
							p.Prefetched = false
						}
						payload[pc] = p
						if *e != p {
							t.Fatalf("step %d: Lookup(%#x) = %+v, reference %+v", i, pc, *e, p)
						}
					}
				case op < 11:
					if got, hit := u.Probe(pc), ref.Resident(pc); got != hit {
						t.Fatalf("step %d: Probe(%#x) = %v, reference %v", i, pc, got, hit)
					}
				default:
					prefetched := r.Bool(0.3)
					e := Entry{Ops: uint8(1 + r.Intn(8)), Branches: uint8(r.Intn(3)), EndsTaken: r.Bool(0.5), Prefetched: prefetched}
					want.Inserts++
					if prefetched {
						want.PrefetchInserts++
					}
					if ref.Touch(pc) {
						p := payload[pc]
						e.Prefetched, e.Used = p.Prefetched, p.Used
					} else if ev, ok := ref.Fill(pc); ok {
						want.Evictions++
						if p := payload[ev]; p.Prefetched && !p.Used {
							want.PrefetchEvictUnused++
						}
						delete(payload, ev)
					}
					u.Insert(pc, e.Ops, e.Branches, e.EndsTaken, prefetched)
					payload[pc] = e
				}
				if u.Stats() != want {
					t.Fatalf("step %d: stats %+v, reference %+v", i, u.Stats(), want)
				}
				set := u.setOf(pc)
				ways := u.tags[set*g.ways : (set+1)*g.ways]
				decode := func(tv uint64) (uint64, bool) {
					tag := tv &^ validBit
					return ((tag>>3)*sets+uint64(set))*isa.EntryBytes + (tag&7)*isa.InstBytes, tv != 0
				}
				if err := lrutest.Check(ref, pc, ways, decode); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				for w, tv := range ways {
					k, ok := decode(tv)
					if got := u.data[set*g.ways+w]; ok && got != payload[k] || !ok && got != (Entry{}) {
						t.Fatalf("step %d: set %d way %d payload %+v, reference %+v", i, set, w, got, payload[k])
					}
				}
			}
		})
	}
}
