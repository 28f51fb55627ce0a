package cache

import (
	"fmt"

	"ucp/internal/isa"
	"ucp/internal/lru"
	"ucp/internal/recycle"
)

// Hierarchy wires the Table II memory system: split L1s over a shared
// L2, LLC, and DRAM, plus the TLBs. Instruction fetches go through
// ITLB→(STLB)→L1I→L2→LLC→DRAM; data accesses through DTLB and L1D.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	LLC  *Cache
	DRAM *FixedLatency

	ITLB *TLB
	DTLB *TLB
	STLB *TLB

	// Consecutive-duplicate filters for the functional warm path
	// (warm.go): repeated warms within one page/line short-circuit.
	warmIPage, warmDPage, warmDLine      uint64
	warmIValid, warmDPValid, warmDLValid bool

	// L1I prefetch queue: issued L1I prefetches drain one per cycle.
	pqCap      int
	pqFreeAt   uint64
	pqOccupied int
	pqLastNow  uint64
	PQIssued   uint64
	PQDropped  uint64
}

// HierarchyConfig sizes the memory system.
type HierarchyConfig struct {
	L1I, L1D, L2, LLC Config
	DRAMLatency       uint64
	ITLB, DTLB, STLB  TLBConfig
	WalkLatency       uint64
	L1IPQEntries      int
}

// DefaultHierarchyConfig mirrors Table II (Alder Lake P-core).
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:          Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4, MSHRs: 16},
		L1D:          Config{Name: "L1D", SizeBytes: 48 << 10, Ways: 12, HitLatency: 5, MSHRs: 16},
		L2:           Config{Name: "L2", SizeBytes: 1280 << 10, Ways: 20, HitLatency: 10, MSHRs: 32},
		LLC:          Config{Name: "LLC", SizeBytes: 30 << 20, Ways: 12, HitLatency: 40, MSHRs: 64},
		DRAMLatency:  150, // tRP+tRCD+tCAS = 37.5ns ≈ 150 cycles at 4GHz
		ITLB:         TLBConfig{Entries: 256, Ways: 8, HitLatency: 1, PageBits: 12},
		DTLB:         TLBConfig{Entries: 96, Ways: 6, HitLatency: 1, PageBits: 12},
		STLB:         TLBConfig{Entries: 2048, Ways: 16, HitLatency: 8, PageBits: 12},
		WalkLatency:  120,
		L1IPQEntries: 32,
	}
}

// Validate rejects TLB pages smaller than a cache line: the warming
// skip records references as line addresses (RefBuf), which select the
// right page only when a page holds whole lines. It also rejects a
// cache or TLB without ways, and any geometry with too few sets for an
// address below 1<<isa.AddrBits to leave a tag that fits its 32-bit
// word beside the valid bit.
func (c HierarchyConfig) Validate() error {
	for _, l := range []Config{c.L1I, c.L1D, c.L2, c.LLC} {
		if err := l.validate(); err != nil {
			return err
		}
	}
	for _, t := range []struct {
		name string
		cfg  TLBConfig
	}{{"ITLB", c.ITLB}, {"DTLB", c.DTLB}, {"STLB", c.STLB}} {
		if t.cfg.PageBits < 6 {
			return fmt.Errorf("cache: %s PageBits must be at least 6 (a page holds whole 64-byte lines), got %d", t.name, t.cfg.PageBits)
		}
		if t.cfg.Ways < 1 {
			return fmt.Errorf("cache: %s Ways must be positive, got %d", t.name, t.cfg.Ways)
		}
		if err := tagsFit(t.name, isa.AddrBits-t.cfg.PageBits, t.cfg.sets()); err != nil {
			return err
		}
	}
	return nil
}

// NewHierarchy builds the memory system from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	dram := &FixedLatency{Latency: cfg.DRAMLatency}
	llc := New(cfg.LLC, dram)
	l2 := New(cfg.L2, llc)
	h := &Hierarchy{
		L1I:   New(cfg.L1I, l2),
		L1D:   New(cfg.L1D, l2),
		L2:    l2,
		LLC:   llc,
		DRAM:  dram,
		ITLB:  NewTLB(cfg.ITLB, nil),
		DTLB:  NewTLB(cfg.DTLB, nil),
		STLB:  NewTLB(cfg.STLB, nil),
		pqCap: cfg.L1IPQEntries,
	}
	h.ITLB.stlb = h.STLB
	h.DTLB.stlb = h.STLB
	h.ITLB.walkLatency = cfg.WalkLatency
	h.DTLB.walkLatency = cfg.WalkLatency
	h.STLB.walkLatency = cfg.WalkLatency
	return h
}

// Release hands every cache's and TLB's tags back to package recycle
// (Cache.Release); the hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2, h.LLC} {
		c.Release()
	}
	for _, t := range []*TLB{h.ITLB, h.DTLB, h.STLB} {
		t.Release()
	}
}

// FetchInst returns the cycle at which the instruction line containing
// addr is available, including address translation.
func (h *Hierarchy) FetchInst(addr uint64, now uint64) uint64 {
	ready := h.ITLB.Translate(addr, now)
	return h.L1I.FetchLine(addr, ready)
}

// PrefetchInst issues an instruction prefetch through the L1I prefetch
// queue. It returns the fill-complete cycle and whether the request was
// accepted (the PQ drops requests when full, as real PQs do).
func (h *Hierarchy) PrefetchInst(addr uint64, now uint64) (done uint64, accepted bool) {
	if h.L1I.Contains(addr) {
		return now, true
	}
	// Drain the PQ model: one issue slot per cycle.
	if now > h.pqLastNow {
		drained := int(now - h.pqLastNow)
		if drained > h.pqOccupied {
			drained = h.pqOccupied
		}
		h.pqOccupied -= drained
		h.pqLastNow = now
	}
	if h.pqOccupied >= h.pqCap {
		h.PQDropped++
		return 0, false
	}
	h.pqOccupied++
	h.PQIssued++
	ready := h.ITLB.Translate(addr, now)
	done, _ = h.L1I.Prefetch(addr, ready)
	return done, true
}

// Load returns the data-ready cycle for a load issued at now.
func (h *Hierarchy) Load(addr uint64, now uint64) uint64 {
	ready := h.DTLB.Translate(addr, now)
	return h.L1D.FetchLine(addr, ready)
}

// Store models a store issued at now; write-allocate, completion hidden
// by the store buffer, so the returned cycle is only used for stats.
func (h *Hierarchy) Store(addr uint64, now uint64) uint64 {
	ready := h.DTLB.Translate(addr, now)
	return h.L1D.FetchLine(addr, ready)
}

// TLBConfig sizes a TLB.
type TLBConfig struct {
	Entries    int
	Ways       int
	HitLatency uint64
	PageBits   int
}

// sets returns the TLB's set count: its entries over its ways, at
// least one.
func (c TLBConfig) sets() int { return max(c.Entries/c.Ways, 1) }

// TLB is a set-associative translation cache. A miss consults the STLB
// (when present), and an STLB miss pays the page-walk latency.
type TLB struct {
	cfg   TLBConfig
	index setIndex
	// tags packs each way's valid bit and tag as validBit|tag (zero =
	// invalid), each set in recency order — same layout as Cache.
	tags        []uint32
	stlb        *TLB
	walkLatency uint64
	stats       Stats
}

// NewTLB constructs a TLB; stlb may be nil (then misses walk directly).
func NewTLB(cfg TLBConfig, stlb *TLB) *TLB {
	sets := cfg.sets()
	return &TLB{cfg: cfg, index: newSetIndex(sets, isa.AddrBits-cfg.PageBits),
		tags: recycle.Make[uint32](sets * cfg.Ways), stlb: stlb}
}

// Release hands the tag array back to package recycle; the TLB must
// not be used afterwards.
func (t *TLB) Release() {
	recycle.Free(t.tags)
	t.tags = nil
}

// Translate returns the cycle at which the translation of addr is
// available.
func (t *TLB) Translate(addr uint64, now uint64) uint64 {
	page := addr >> (uint(t.cfg.PageBits) % 64)
	t.stats.Accesses++
	s, want := t.index.locate(page)
	// A miss installs the page at the front over the set's LRU (last)
	// way.
	if hit, _ := lru.Lookup(t.tags[s*t.cfg.Ways:(s+1)*t.cfg.Ways], want); hit {
		t.stats.Hits++
		return now + t.cfg.HitLatency
	}
	t.stats.Misses++
	ready := now + t.cfg.HitLatency
	if t.stlb != nil {
		ready = t.stlb.Translate(addr, ready)
	} else {
		ready += t.walkLatency
	}
	return ready
}

// Stats returns a copy of the TLB counters.
func (t *TLB) Stats() Stats { return t.stats }
