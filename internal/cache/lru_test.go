package cache

import (
	"fmt"
	"slices"
	"testing"

	"ucp/internal/lru/lrutest"
	"ucp/internal/rng"
)

// join is split's inverse: the block number of tag in set.
func (x setIndex) join(set int, tag uint64) uint64 { return tag*x.sets + uint64(set) }

// checkSet requires the set of tags holding block (under index) to list
// exactly the reference's resident blocks in recency order, followed
// only by empty ways.
func checkSet(t *testing.T, step int, tags []uint64, ways int, index setIndex, ref *lrutest.Sets, block uint64) {
	t.Helper()
	set, _ := index.split(block)
	err := ref.Check(block, tags[set*ways:(set+1)*ways], func(tv uint64) (uint64, bool) {
		return index.join(set, tv&^validBit), tv != 0
	})
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// refMSHR is one in-flight miss in refCache's MSHR file.
type refMSHR struct{ la, ready uint64 }

// refCache is a reference cache level over lrutest.Sets: the same demand,
// prefetch and warm accounting as Cache, an MSHR file that merges
// in-flight misses, frees completed entries once full, and stalls on
// the earliest fill when still full, and a fixed-latency lower level.
type refCache struct {
	dir              *lrutest.Sets
	hitLat, lowerLat uint64
	mshrs            int
	mshr             []refMSHR
	stats            Stats
	lowerAccesses    uint64
	merges           uint64
}

func (m *refCache) fill(la uint64) {
	if _, ok := m.dir.Fill(la / LineBytes); ok {
		m.stats.Evictions++
	}
}

func (m *refCache) warm(la uint64) {
	m.stats.Accesses++
	if m.dir.Touch(la / LineBytes) {
		m.stats.Hits++
		return
	}
	m.stats.Misses++
	m.lowerAccesses++
	m.fill(la)
}

func (m *refCache) access(la, now uint64, prefetch bool) uint64 {
	if !prefetch {
		m.stats.Accesses++
	}
	if m.dir.Touch(la / LineBytes) {
		if !prefetch {
			m.stats.Hits++
		}
		return now + m.hitLat
	}
	if !prefetch {
		m.stats.Misses++
	}
	if i := slices.IndexFunc(m.mshr, func(e refMSHR) bool { return e.la == la }); i >= 0 {
		if ready := m.mshr[i].ready; ready > now {
			m.merges++
			return max(ready, now+m.hitLat)
		}
		m.mshr = slices.Delete(m.mshr, i, i+1)
	}
	issue := now
	if len(m.mshr) >= m.mshrs {
		m.mshr = slices.DeleteFunc(m.mshr, func(e refMSHR) bool { return e.ready <= now })
	}
	if len(m.mshr) >= m.mshrs {
		i := 0
		for j, e := range m.mshr {
			if e.ready < m.mshr[i].ready {
				i = j
			}
		}
		m.stats.MSHRStalls++
		issue = max(issue, m.mshr[i].ready)
		m.mshr = slices.Delete(m.mshr, i, i+1)
	}
	m.lowerAccesses++
	ready := issue + m.hitLat + m.lowerLat
	m.mshr = append(m.mshr, refMSHR{la, ready})
	m.fill(la)
	return ready
}

func (m *refCache) prefetch(la, now uint64) (uint64, bool) {
	if m.dir.Resident(la / LineBytes) {
		return now, true
	}
	m.stats.Prefetches++
	return m.access(la, now, true), false
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

// Operations a model-checked stream mixes.
const (
	opWarm = iota
	opFetch
	opPrefetch
	opContains
	numOps
)

// runCacheModel drives one stream of accesses through a Cache and the
// reference, issuing only WarmLine when warmOnly is set and otherwise a
// mix of WarmLine, FetchLine, Prefetch and Contains with a slowly
// advancing clock and a four-entry MSHR file, so misses merge with
// in-flight ones and fill the file. After every access the two must
// agree on the returned cycle or residency, the stats, the lower
// level's traffic and the touched set's recency order. It returns the
// reference.
func runCacheModel(t *testing.T, sets, ways int, warmOnly bool) *refCache {
	const hitLat, lowerLat, mshrs = 3, 100, 4
	dram := &FixedLatency{Latency: lowerLat}
	c := New(Config{Name: "T", SizeBytes: sets * ways * LineBytes, Ways: ways, HitLatency: hitLat, MSHRs: mshrs}, dram)
	if c.Sets() != sets {
		t.Fatalf("built %d sets, want %d", c.Sets(), sets)
	}
	m := &refCache{dir: lrutest.New(sets, ways, nil), hitLat: hitLat, lowerLat: lowerLat, mshrs: mshrs}
	r := rng.New(uint64(sets*100+ways) ^ 0x9e3779b97f4a7c15) // op stream, independent of the blocks
	now := uint64(0)
	for i, block := range refStream(uint64(sets*100+ways), sets*ways, 20_000) {
		la := block * LineBytes
		addr := la + uint64(i%LineBytes)
		op := opWarm
		if !warmOnly {
			op = r.Intn(numOps)
			now += r.Uint64n(4)
		}
		switch op {
		case opWarm:
			c.WarmLine(addr)
			m.warm(la)
		case opFetch:
			if got, want := c.FetchLine(addr, now), m.access(la, now, false); got != want {
				t.Fatalf("step %d: FetchLine(%#x, %d) = %d, reference %d", i, la, now, got, want)
			}
		case opPrefetch:
			gotDone, gotRes := c.Prefetch(addr, now)
			wantDone, wantRes := m.prefetch(la, now)
			if gotDone != wantDone || gotRes != wantRes {
				t.Fatalf("step %d: Prefetch(%#x, %d) = %d,%v, reference %d,%v", i, la, now, gotDone, gotRes, wantDone, wantRes)
			}
		case opContains:
			if got, want := c.Contains(addr), m.dir.Resident(block); got != want {
				t.Fatalf("step %d: Contains(%#x) = %v, reference %v", i, la, got, want)
			}
		}
		if c.Stats() != m.stats || dram.Accesses != m.lowerAccesses {
			t.Fatalf("step %d: stats %+v with %d lower accesses, reference %+v with %d", i, c.Stats(), dram.Accesses, m.stats, m.lowerAccesses)
		}
		checkSet(t, i, c.tags, ways, c.index, m.dir, block)
	}
	return m
}

// TestWarmLineMatchesReferenceLRU checks WarmLine alone against the
// stamp-based reference, on power-of-two and non-power-of-two set
// counts.
func TestWarmLineMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{8, 2}, {64, 8}, {5, 3}, {12, 12}, {40, 12}, {1, 4}, {7, 1},
	} {
		t.Run(fmt.Sprintf("sets=%d/ways=%d", g.sets, g.ways), func(t *testing.T) {
			runCacheModel(t, g.sets, g.ways, true)
		})
	}
}

// TestCacheMatchesReferenceLRU checks mixed WarmLine, FetchLine,
// Prefetch and Contains streams against the stamp-based reference on
// 1-, 8-, 12- and 20-way geometries with power-of-two and
// non-power-of-two set counts, and requires the streams to have reached
// the MSHR-merge and MSHR-full paths.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	var merges, stalls uint64
	for _, g := range []struct{ sets, ways int }{
		{8, 1}, {7, 1}, {16, 8}, {5, 8}, {32, 12}, {40, 12}, {4, 20}, {3, 20},
	} {
		t.Run(fmt.Sprintf("sets=%d/ways=%d", g.sets, g.ways), func(t *testing.T) {
			m := runCacheModel(t, g.sets, g.ways, false)
			merges, stalls = merges+m.merges, stalls+m.stats.MSHRStalls
		})
	}
	if merges == 0 || stalls == 0 {
		t.Errorf("streams merged %d misses with in-flight ones and stalled %d on a full MSHR file, want both > 0", merges, stalls)
	}
}

// TestTLBMatchesReferenceLRU checks Translate against the stamp-based
// reference over page numbers: the returned cycle (hit latency, or hit
// latency plus the walk), the stats and the touched set's recency order
// after every translation.
func TestTLBMatchesReferenceLRU(t *testing.T) {
	const walk = 100
	for _, g := range []struct{ entries, ways int }{
		{256, 8}, {96, 6}, {2048, 16}, {96, 8}, {40, 4}, {12, 12}, {7, 1}, {80, 20}, {60, 20},
	} {
		t.Run(fmt.Sprintf("entries=%d/ways=%d", g.entries, g.ways), func(t *testing.T) {
			tlb := NewTLB(TLBConfig{Entries: g.entries, Ways: g.ways, HitLatency: 1, PageBits: 12}, nil)
			tlb.walkLatency = walk
			ref := lrutest.New(g.entries/g.ways, g.ways, nil)
			var want Stats
			for i, page := range refStream(uint64(g.entries*10+g.ways), g.entries, 20_000) {
				now := uint64(i)
				wantReady := now + 1
				want.Accesses++
				if ref.Touch(page) {
					want.Hits++
				} else {
					want.Misses++
					wantReady += walk
					ref.Fill(page)
				}
				if got := tlb.Translate(page<<12|uint64(i%4096), now); got != wantReady {
					t.Fatalf("step %d (page %#x): ready %d, reference %d", i, page, got, wantReady)
				}
				if tlb.Stats() != want {
					t.Fatalf("step %d: stats %+v, reference %+v", i, tlb.Stats(), want)
				}
				checkSet(t, i, tlb.tags, g.ways, tlb.index, ref, page)
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
	if !slices.Equal(direct.LLC.tags, replayed.LLC.tags) {
		t.Error("LLC tag arrays differ between direct and replayed warms")
	}
	buf.Reset()
	if len(buf.refs) != 0 {
		t.Error("Reset kept references")
	}
}
