package btb

import (
	"fmt"
	"slices"
	"testing"

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
					if e := payload[word]; got != hit || hit && (tgt != e.target || kind != e.kind) {
						t.Fatalf("step %d: Lookup(%#x) = %#x,%v,%v, reference %+v,%v", i, pc, tgt, kind, got, e, hit)
					}
				case 1:
					tgt, kind, got := b.Probe(pc)
					if e, hit := payload[word]; got != hit || hit && (tgt != e.target || kind != e.kind) {
						t.Fatalf("step %d: Probe(%#x) = %#x,%v,%v, reference %+v,%v", i, pc, tgt, kind, got, e, hit)
					}
				case 2:
					e := entry{target: r.Uint64n(1 << 40), kind: BranchKind(r.Intn(4))}
					want.Inserts++
					if !ref.Touch(word) {
						if ev, ok := ref.Fill(word); ok {
							want.Evictions++
							delete(payload, ev)
						}
					}
					payload[word] = e
					b.Insert(pc, e.target, e.kind)
				}
				if b.Stats() != want {
					t.Fatalf("step %d: stats %+v, reference %+v", i, b.Stats(), want)
				}
				set := int(word % uint64(sets))
				ways := b.tags[set*g.ways : (set+1)*g.ways]
				decode := func(tv uint64) (uint64, bool) {
					return (tv&^validBit)*uint64(sets) + uint64(set), tv != 0
				}
				if err := ref.Check(word, ways, decode); err != nil {
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

// TestBlockBTBMatchesReferenceLRU does the same for the block BTB over
// block numbers, with a reference FIFO of each resident block's
// branches: Lookup touches a resident block whether or not it holds the
// branch, and Insert touches or fills the block, then refreshes the
// branch, appends it, or drops the block's oldest branch for it.
func TestBlockBTBMatchesReferenceLRU(t *testing.T) {
	for _, cfg := range []BlockConfig{
		{Blocks: 16, Ways: 4, BlockBytes: 64, BranchesPerBlock: 2, Banks: 2},
		{Blocks: 8, Ways: 8, BlockBytes: 32, BranchesPerBlock: 3, Banks: 1},
		{Blocks: 32, Ways: 2, BlockBytes: 16, BranchesPerBlock: 4, Banks: 4},
		{Blocks: 8, Ways: 1, BlockBytes: 64, BranchesPerBlock: 16, Banks: 8},
	} {
		t.Run(fmt.Sprintf("blocks=%d/ways=%d", cfg.Blocks, cfg.Ways), func(t *testing.T) {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			b := NewBlock(cfg)
			sets := cfg.Blocks / cfg.Ways
			ref := lrutest.New(sets, cfg.Ways, nil)
			branches := map[uint64][]blockBranch{} // resident block → branches, oldest first
			find := func(block uint64, off uint8) int {
				return slices.IndexFunc(branches[block], func(br blockBranch) bool { return br.offset == off })
			}
			var want Stats
			r := rng.New(uint64(cfg.Blocks*10 + cfg.Ways))
			slots := min(cfg.BlockBytes/4, cfg.BranchesPerBlock+2)
			for i := range 20_000 {
				block := r.Uint64n(uint64(3 * cfg.Blocks))
				off := uint8(r.Intn(slots))
				pc := block*uint64(cfg.BlockBytes) + uint64(off)*4
				switch r.Intn(3) {
				case 0:
					want.Lookups++
					j := -1
					if ref.Touch(block) {
						j = find(block, off)
					}
					if j >= 0 {
						want.Hits++
					}
					tgt, kind, hit := b.Lookup(pc)
					if hit != (j >= 0) || hit && (tgt != branches[block][j].target || kind != branches[block][j].kind) {
						t.Fatalf("step %d: Lookup(%#x) = %#x,%v,%v, reference branch %d of %+v", i, pc, tgt, kind, hit, j, branches[block])
					}
				case 1:
					j := find(block, off)
					tgt, kind, hit := b.Probe(pc)
					if hit != (j >= 0) || hit && (tgt != branches[block][j].target || kind != branches[block][j].kind) {
						t.Fatalf("step %d: Probe(%#x) = %#x,%v,%v, reference branch %d of %+v", i, pc, tgt, kind, hit, j, branches[block])
					}
				case 2:
					br := blockBranch{valid: true, offset: off, target: r.Uint64n(1 << 40), kind: BranchKind(r.Intn(4))}
					want.Inserts++
					if !ref.Touch(block) {
						if ev, ok := ref.Fill(block); ok {
							want.Evictions++
							delete(branches, ev)
						}
						branches[block] = nil
					}
					switch j := find(block, off); {
					case j >= 0:
						branches[block][j] = br
					case len(branches[block]) < cfg.BranchesPerBlock:
						branches[block] = append(branches[block], br)
					default:
						branches[block] = append(branches[block][1:], br)
					}
					b.Insert(pc, br.target, br.kind)
				}
				if b.Stats() != want {
					t.Fatalf("step %d: stats %+v, reference %+v", i, b.Stats(), want)
				}
				set := int(block % uint64(sets))
				ways := b.tags[set*cfg.Ways : (set+1)*cfg.Ways]
				decode := func(tv uint64) (uint64, bool) {
					return (tv&^blockValid)*uint64(sets) + uint64(set), tv != 0
				}
				if err := ref.Check(block, ways, decode); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				for w, tv := range ways {
					k, ok := decode(tv)
					if !ok {
						continue
					}
					var e blockEntry
					copy(e[:], branches[k])
					if b.data[set*cfg.Ways+w] != e {
						t.Fatalf("step %d: set %d way %d (block %#x) holds %+v, reference %+v", i, set, w, k, b.data[set*cfg.Ways+w][:cfg.BranchesPerBlock], branches[k])
					}
				}
			}
		})
	}
}
