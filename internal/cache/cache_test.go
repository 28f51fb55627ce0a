package cache

import (
	"testing"
	"testing/quick"
)

func twoLevel() (*Cache, *FixedLatency) {
	dram := &FixedLatency{Latency: 100}
	l1 := New(Config{Name: "L1", SizeBytes: 1024, Ways: 2, HitLatency: 4, MSHRs: 4}, dram)
	return l1, dram
}

func TestMissThenHit(t *testing.T) {
	l1, dram := twoLevel()
	done := l1.FetchLine(0x1000, 0)
	if done != 4+100 {
		t.Fatalf("miss latency %d, want 104", done)
	}
	if dram.Accesses != 1 {
		t.Fatalf("dram accesses %d", dram.Accesses)
	}
	done = l1.FetchLine(0x1008, 200) // same line
	if done != 204 {
		t.Fatalf("hit latency %d, want 204", done)
	}
	if dram.Accesses != 1 {
		t.Fatal("hit went to DRAM")
	}
}

func TestMSHRMerge(t *testing.T) {
	l1, dram := twoLevel()
	d1 := l1.FetchLine(0x2000, 0)
	d2 := l1.FetchLine(0x2010, 1) // same line, still in flight
	if dram.Accesses != 1 {
		t.Fatalf("merged miss issued %d DRAM accesses", dram.Accesses)
	}
	if d2 > d1 {
		t.Fatalf("merged access completes at %d, after the fill %d", d2, d1)
	}
}

func TestMSHRFullDelays(t *testing.T) {
	l1, _ := twoLevel()
	var last uint64
	for i := 0; i < 4; i++ {
		last = l1.FetchLine(uint64(0x10000+i*64), 0)
	}
	// Fifth concurrent miss must wait for an outstanding fill.
	d := l1.FetchLine(0x20000, 0)
	if d <= last-100 {
		t.Fatalf("MSHR-full access completed too early: %d", d)
	}
	if l1.Stats().MSHRStalls != 1 {
		t.Fatalf("MSHR stalls = %d", l1.Stats().MSHRStalls)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 1KB, 2 ways, 64B lines → 8 sets. Lines mapping to set 0: stride 512.
	l1, dram := twoLevel()
	l1.FetchLine(0, 0)
	l1.FetchLine(512, 1000)
	l1.FetchLine(0, 2000)    // touch: 0 becomes MRU
	l1.FetchLine(1024, 3000) // evicts 512
	if dram.Accesses != 3 {
		t.Fatalf("setup DRAM accesses %d", dram.Accesses)
	}
	l1.FetchLine(0, 4000)
	if dram.Accesses != 3 {
		t.Fatal("MRU line was evicted")
	}
	l1.FetchLine(512, 5000)
	if dram.Accesses != 4 {
		t.Fatal("LRU line was not evicted")
	}
}

func TestContains(t *testing.T) {
	l1, _ := twoLevel()
	if l1.Contains(0x3000) {
		t.Fatal("empty cache contains line")
	}
	l1.FetchLine(0x3000, 0)
	if !l1.Contains(0x3004) {
		t.Fatal("line not resident after fetch")
	}
}

func TestPrefetchResident(t *testing.T) {
	l1, dram := twoLevel()
	l1.FetchLine(0x4000, 0)
	_, resident := l1.Prefetch(0x4000, 10)
	if !resident {
		t.Fatal("prefetch of resident line must be a no-op")
	}
	if dram.Accesses != 1 {
		t.Fatal("resident prefetch hit DRAM")
	}
	done, resident := l1.Prefetch(0x5000, 10)
	if resident || done != 10+4+100 {
		t.Fatalf("prefetch miss done=%d resident=%v", done, resident)
	}
}

func TestCapacityProperty(t *testing.T) {
	// A line just fetched is always resident, regardless of history.
	if err := quick.Check(func(addrs []uint32) bool {
		l1, _ := twoLevel()
		now := uint64(0)
		for _, a := range addrs {
			now += 200
			l1.FetchLine(uint64(a), now)
			if !l1.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHierarchy(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// First touch: ITLB miss → STLB miss → walk.
	d1 := h.ITLB.Translate(0x100000, 0)
	if d1 < 100 {
		t.Fatalf("cold translation too fast: %d", d1)
	}
	// Second touch: ITLB hit.
	d2 := h.ITLB.Translate(0x100040, 1000)
	if d2 != 1001 {
		t.Fatalf("warm translation %d, want 1001", d2)
	}
	// A different page in the same STLB: ITLB miss, STLB hit after the
	// first page's walk populated only that page — so this walks too.
	d3 := h.ITLB.Translate(0x200000, 2000)
	if d3 < 2100 {
		t.Fatalf("new page should walk: %d", d3)
	}
}

func TestHierarchyInstFetch(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	cold := h.FetchInst(0x100000, 0)
	// ITLB walk + L1I miss + L2 miss + LLC miss + DRAM.
	if cold < 200 {
		t.Fatalf("cold fetch %d cycles, implausibly fast", cold)
	}
	warm := h.FetchInst(0x100000, 10000)
	if warm != 10000+1+4 {
		t.Fatalf("warm fetch %d, want ITLB(1)+L1I(4)", warm)
	}
}

func TestHierarchyPQ(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1IPQEntries = 2
	h := NewHierarchy(cfg)
	// Two prefetches at the same cycle fill the PQ; the third drops.
	if _, ok := h.PrefetchInst(0x10000, 5); !ok {
		t.Fatal("first prefetch rejected")
	}
	if _, ok := h.PrefetchInst(0x20000, 5); !ok {
		t.Fatal("second prefetch rejected")
	}
	if _, ok := h.PrefetchInst(0x30000, 5); ok {
		t.Fatal("third prefetch should drop (PQ full)")
	}
	if h.PQDropped != 1 {
		t.Fatalf("PQDropped = %d", h.PQDropped)
	}
	// After the queue drains, prefetches are accepted again.
	if _, ok := h.PrefetchInst(0x40000, 100); !ok {
		t.Fatal("prefetch after drain rejected")
	}
	// Prefetch of a resident line does not consume a PQ slot.
	h.FetchInst(0x50000, 200)
	before := h.PQIssued
	if _, ok := h.PrefetchInst(0x50000, 300); !ok {
		t.Fatal("resident prefetch rejected")
	}
	if h.PQIssued != before {
		t.Fatal("resident prefetch consumed a PQ slot")
	}
}

func TestLoadStorePaths(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	cold := h.Load(1<<32, 0)
	if cold < 150 {
		t.Fatalf("cold load %d", cold)
	}
	warm := h.Load(1<<32, 5000)
	if warm != 5000+1+5 {
		t.Fatalf("warm load %d, want DTLB(1)+L1D(5)", warm)
	}
	// Stores allocate too.
	h.Store((1<<32)+128, 6000)
	if !h.L1D.Contains((1 << 32) + 128) {
		t.Fatal("store did not allocate")
	}
}

func TestStatsAccounting(t *testing.T) {
	l1, _ := twoLevel()
	l1.FetchLine(0x100, 0)
	l1.FetchLine(0x100, 10)
	s := l1.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTLBStats(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.ITLB.Translate(0x1000, 0)
	h.ITLB.Translate(0x1000, 10)
	s := h.ITLB.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("ITLB stats %+v", s)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	// Touch more pages than the ITLB holds; early pages must re-miss.
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	pages := cfg.ITLB.Entries + 64
	for i := 0; i < pages; i++ {
		h.ITLB.Translate(uint64(i)<<12, uint64(i*10))
	}
	before := h.ITLB.Stats().Misses
	h.ITLB.Translate(0, 1<<20)
	if h.ITLB.Stats().Misses != before+1 {
		t.Fatal("evicted page did not re-miss")
	}
}

func TestPrefetchSharesMSHRPath(t *testing.T) {
	// A demand access right after a prefetch of the same line must merge
	// (no second DRAM trip) and complete no later than the prefetch.
	l1, dram := twoLevel()
	pfDone, _ := l1.Prefetch(0x9000, 0)
	demand := l1.FetchLine(0x9000, 1)
	if dram.Accesses != 1 {
		t.Fatalf("demand after prefetch hit DRAM again (%d)", dram.Accesses)
	}
	if demand > pfDone {
		t.Fatalf("demand (%d) slower than the outstanding prefetch (%d)", demand, pfDone)
	}
}

func TestMSHRStress(t *testing.T) {
	// Hammering one level with misses must neither grow the MSHR map
	// unboundedly nor lose correctness.
	l1, _ := twoLevel()
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		l1.FetchLine(uint64(i)*64*17, now)
		now += 3
	}
	if len(l1.mshr) > l1.cfg.MSHRs+1 {
		t.Fatalf("MSHR map grew to %d (cap %d)", len(l1.mshr), l1.cfg.MSHRs)
	}
}
