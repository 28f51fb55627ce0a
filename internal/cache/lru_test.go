package cache

import (
	"fmt"
	"slices"
	"testing"

	"ucp/internal/rng"
)

// refLRU is a reference set-associative LRU directory over block
// numbers: set = block mod sets, each set an LRU-ordered list (least
// recent first). It shares no code with Cache or TLB.
type refLRU struct {
	sets, ways uint64
	lists      [][]uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: uint64(sets), ways: uint64(ways), lists: make([][]uint64, sets)}
}

// access touches block and reports whether it hit, and which block it
// evicted (evicted is valid only when ok).
func (r *refLRU) access(block uint64) (hit bool, evicted uint64, ok bool) {
	s := block % r.sets
	l := r.lists[s]
	if i := slices.Index(l, block); i >= 0 {
		r.lists[s] = append(slices.Delete(l, i, i+1), block)
		return true, 0, false
	}
	if uint64(len(l)) == r.ways {
		evicted, ok = l[0], true
		l = l[1:]
	}
	r.lists[s] = append(l, block)
	return false, evicted, ok
}

// refStream draws block numbers from a footprint a few times the
// structure's capacity, so hits, cold fills and evictions all occur.
func refStream(seed uint64, capacity, n int) []uint64 {
	r := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64n(uint64(3 * capacity))
		if r.Bool(0.1) {
			out[i] += 1 << 40 // far blocks stress the tag width
		}
	}
	return out
}

// TestWarmLineMatchesReferenceLRU pins WarmLine's set mapping, hit
// detection and branch-free victim choice (an empty way first, then the
// least recently used) against the reference directory, on power-of-two
// and non-power-of-two set counts. Every access must agree on hit or
// miss, every eviction on the evicted line (through OnEvict), and the
// lower level must see exactly the misses.
func TestWarmLineMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{8, 2}, {64, 8}, {5, 3}, {12, 12}, {40, 12}, {1, 4}, {7, 1},
	} {
		t.Run(fmt.Sprintf("sets=%d/ways=%d", g.sets, g.ways), func(t *testing.T) {
			dram := &FixedLatency{Latency: 100}
			c := New(Config{Name: "T", SizeBytes: g.sets * g.ways * LineBytes, Ways: g.ways, HitLatency: 1, MSHRs: 4}, dram)
			if c.Sets() != g.sets {
				t.Fatalf("built %d sets, want %d", c.Sets(), g.sets)
			}
			var evicted []uint64
			c.OnEvict = func(la uint64) { evicted = append(evicted, la) }
			ref := newRefLRU(g.sets, g.ways)
			for i, block := range refStream(uint64(g.sets*100+g.ways), g.sets*g.ways, 20_000) {
				la := block * LineBytes
				before := c.Stats().Hits
				evicted = evicted[:0]
				c.WarmLine(la + uint64(i%LineBytes))
				hit, ev, evOK := ref.access(block)
				if gotHit := c.Stats().Hits > before; gotHit != hit {
					t.Fatalf("access %d (line %#x): hit=%v, reference %v", i, la, gotHit, hit)
				}
				if evOK != (len(evicted) == 1) || len(evicted) > 1 || (evOK && evicted[0] != ev*LineBytes) {
					t.Fatalf("access %d (line %#x): evicted %#x, reference %#x (ok=%v)", i, la, evicted, ev*LineBytes, evOK)
				}
			}
			st := c.Stats()
			if dram.Accesses != st.Misses || st.Hits+st.Misses != st.Accesses {
				t.Fatalf("stats %+v with %d lower-level warms", st, dram.Accesses)
			}
			for s, l := range ref.lists {
				for _, block := range l {
					if !c.Contains(block * LineBytes) {
						t.Fatalf("set %d: reference-resident line %#x missing", s, block*LineBytes)
					}
				}
			}
		})
	}
}

// TestTLBMatchesReferenceLRU pins the TLB's set and tag mapping (mask
// and shift on power-of-two set counts, one division otherwise) and its
// victim choice against the reference directory over page numbers.
func TestTLBMatchesReferenceLRU(t *testing.T) {
	const walk = 100
	for _, g := range []struct{ entries, ways int }{
		{256, 8}, {96, 6}, {2048, 16}, {96, 8}, {40, 4}, {12, 12}, {7, 1},
	} {
		t.Run(fmt.Sprintf("entries=%d/ways=%d", g.entries, g.ways), func(t *testing.T) {
			tlb := NewTLB(TLBConfig{Entries: g.entries, Ways: g.ways, HitLatency: 1, PageBits: 12}, nil)
			tlb.walkLatency = walk
			ref := newRefLRU(g.entries/g.ways, g.ways)
			for i, page := range refStream(uint64(g.entries*10+g.ways), g.entries, 20_000) {
				ready := tlb.Translate(page<<12|uint64(i%4096), 0)
				hit, _, _ := ref.access(page)
				if gotHit := ready == 1; gotHit != hit {
					t.Fatalf("access %d (page %#x): hit=%v, reference %v", i, page, gotHit, hit)
				}
			}
		})
	}
}

// TestWarmRefsMatchesDirectWarms replays a RefBuf of interleaved fetch
// and unaligned data references and checks every level and TLB ends in
// the state the same references issued directly would leave.
func TestWarmRefsMatchesDirectWarms(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L2.SizeBytes, cfg.LLC.SizeBytes = 64<<10, 40*12*LineBytes // small, non-power-of-two LLC
	direct, replayed := NewHierarchy(cfg), NewHierarchy(cfg)
	buf := NewRefBuf(0)
	r := rng.New(7)
	for i := 0; i < 50_000; i++ {
		addr := r.Uint64n(1 << 24)
		if r.Bool(0.4) {
			direct.WarmFetchInst(addr&^(LineBytes-1), 3)
			buf.AddFetch(addr)
		} else {
			direct.WarmData(addr, 3)
			buf.AddData(addr)
		}
	}
	replayed.WarmRefs(buf, 3)
	for _, p := range []struct {
		name string
		a, b Stats
	}{
		{"L1I", direct.L1I.Stats(), replayed.L1I.Stats()}, {"L1D", direct.L1D.Stats(), replayed.L1D.Stats()},
		{"L2", direct.L2.Stats(), replayed.L2.Stats()}, {"LLC", direct.LLC.Stats(), replayed.LLC.Stats()},
		{"ITLB", direct.ITLB.Stats(), replayed.ITLB.Stats()}, {"DTLB", direct.DTLB.Stats(), replayed.DTLB.Stats()},
	} {
		if p.a != p.b {
			t.Errorf("%s: direct %+v, replayed %+v", p.name, p.a, p.b)
		}
	}
	if !slices.Equal(direct.LLC.tags, replayed.LLC.tags) || !slices.Equal(direct.LLC.lrus, replayed.LLC.lrus) {
		t.Error("LLC tag/LRU arrays differ between direct and replayed warms")
	}
	buf.Reset()
	if len(buf.refs) != 0 {
		t.Error("Reset kept references")
	}
}
