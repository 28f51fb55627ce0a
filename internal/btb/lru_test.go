package btb

import (
	"fmt"
	"testing"

	"ucp/internal/isa"
	"ucp/internal/lru/lrutest"
	"ucp/internal/rng"
)

// TestBTBMatchesReferenceLRU drives random Lookup, Probe and Insert
// streams through a BTB and the stamp-based reference over branch
// words (pc/4, set = word mod sets). After every access the two must
// agree on the hit and its payload, the stats, the touched set's
// recency order, and the payload of each of its ways.
func TestBTBMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{
		{64, 4}, {16, 1}, {128, 8}, {8, 8},
	} {
		t.Run(fmt.Sprintf("entries=%d/ways=%d", g.entries, g.ways), func(t *testing.T) {
			b := New(Config{Entries: g.entries, Ways: g.ways, Banks: 1})
			sets := g.entries / g.ways
			ref := lrutest.New(sets, g.ways, nil)
			payload := map[uint64]entry{} // resident word → entry
			var want Stats
			r := rng.New(uint64(g.entries*10 + g.ways))
			for i := range 20_000 {
				word := r.Uint64n(uint64(3 * g.entries))
				pc := word << 2
				switch r.Intn(3) {
				case 0:
					want.Lookups++
					hit := ref.Touch(word)
					tgt, kind, got := b.Lookup(pc)
					if hit {
						want.Hits++
					}
					if e := payload[word]; got != hit || hit && (tgt != e.target() || kind != e.kind()) {
						t.Fatalf("step %d: Lookup(%#x) = %#x,%v,%v, reference %+v,%v", i, pc, tgt, kind, got, e, hit)
					}
				case 1:
					tgt, kind, got := b.Probe(pc)
					if e, hit := payload[word]; got != hit || hit && (tgt != e.target() || kind != e.kind()) {
						t.Fatalf("step %d: Probe(%#x) = %#x,%v,%v, reference %+v,%v", i, pc, tgt, kind, got, e, hit)
					}
				case 2:
					e := pack(r.Uint64n(1<<isa.AddrBits), BranchKind(r.Intn(4)))
					want.Inserts++
					if !ref.Touch(word) {
						if ev, ok := ref.Fill(word); ok {
							want.Evictions++
							delete(payload, ev)
						}
					}
					payload[word] = e
					b.Insert(pc, e.target(), e.kind())
				}
				if b.Stats() != want {
					t.Fatalf("step %d: stats %+v, reference %+v", i, b.Stats(), want)
				}
				set := int(word % uint64(sets))
				ways := b.tags[set*g.ways : (set+1)*g.ways]
				decode := func(tv uint32) (uint64, bool) {
					return uint64(tv&^validBit)*uint64(sets) + uint64(set), tv != 0
				}
				if err := lrutest.Check(ref, word, ways, decode); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				for w, tv := range ways {
					if k, ok := decode(tv); ok && b.data[set*g.ways+w] != payload[k] {
						t.Fatalf("step %d: set %d way %d payload %+v, reference %+v", i, set, w, b.data[set*g.ways+w], payload[k])
					}
				}
			}
		})
	}
}
