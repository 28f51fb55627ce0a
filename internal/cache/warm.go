package cache

import "ucp/internal/lru"

// Functional warming for the sampled simulation mode: WarmLine performs
// a demand fill's *state* effects — recency update on a hit, fill with
// LRU eviction on a miss, recursing into lower levels — without
// touching the MSHR file or producing a ready cycle. The fast-forward path issues memory traffic
// at one instruction per nominal cycle, far denser than the detailed
// machine could sustain; routing it through FetchLine would grow an
// unbounded MSHR backlog that stalls the next detailed window.

// WarmLine implements Level: residency and recency update only. A hit
// scan runs first; a miss warms the lower level and then takes the
// set's LRU way exactly as a demand fill does (fill), with no MSHR and
// no ready cycle.
func (c *Cache) WarmLine(addr uint64) {
	la := c.lineAddr(addr)
	c.stats.Accesses++
	base, want := c.locate(la)
	set := c.tags[base : base+c.ways]
	for w, tv := range set {
		if tv == want {
			lru.ToFront(set, w, want)
			c.stats.Hits++
			return
		}
	}
	c.stats.Misses++
	c.lower.WarmLine(la)
	c.fill(base, want)
}

// WarmLine implements Level for the DRAM backend.
func (f *FixedLatency) WarmLine(uint64) { f.Accesses++ }

// WarmFetchInst is FetchInst's functional counterpart: ITLB/STLB state
// advances (Translate has no latency-model state beyond its return
// value) and the L1I path is warmed. Consecutive calls within one page
// skip the redundant translation — warming cares about residency, not
// per-access recency, and the warm path's throughput bounds the whole
// sampled mode.
func (h *Hierarchy) WarmFetchInst(addr uint64, now uint64) {
	if pg := addr >> uint(h.ITLB.cfg.PageBits); !h.warmIValid || pg != h.warmIPage {
		h.warmIPage, h.warmIValid = pg, true
		h.ITLB.Translate(addr, now)
	}
	h.L1I.WarmLine(addr)
}

// WarmData is Load/Store's functional counterpart on the DTLB/L1D path,
// with the same consecutive-duplicate filtering per line and per page.
func (h *Hierarchy) WarmData(addr uint64, now uint64) {
	la := addr &^ (LineBytes - 1)
	if h.warmDLValid && la == h.warmDLine {
		return
	}
	h.warmDLine, h.warmDLValid = la, true
	if pg := addr >> uint(h.DTLB.cfg.PageBits); !h.warmDPValid || pg != h.warmDPage {
		h.warmDPage, h.warmDPValid = pg, true
		h.DTLB.Translate(addr, now)
	}
	h.L1D.WarmLine(la)
}

// RefBuf records a warming skip's memory references in program order
// for WarmRefs to replay. Fetch lines and data lines share one stream
// because the L1I and L1D share the L2 and the LLC. A reference is kept
// as its line address, which selects the same cache line and, since a
// page holds whole lines (HierarchyConfig.Validate), the same TLB page
// as the full address; the freed low bit tags instruction fetches.
type RefBuf struct{ refs []uint64 }

// ifetchRef tags an instruction-fetch line in a RefBuf.
const ifetchRef = 1

// NewRefBuf returns an empty buffer with room for n references.
func NewRefBuf(n int) *RefBuf { return &RefBuf{refs: make([]uint64, 0, n)} }

// Reset empties the buffer, keeping its storage.
func (b *RefBuf) Reset() { b.refs = b.refs[:0] }

// AddFetch records an instruction fetch from addr's line.
func (b *RefBuf) AddFetch(addr uint64) {
	b.refs = append(b.refs, addr&^(LineBytes-1)|ifetchRef)
}

// AddData records a data access to addr's line.
func (b *RefBuf) AddData(addr uint64) {
	b.refs = append(b.refs, addr&^(LineBytes-1))
}

// WarmRefs replays b in order: each fetch through WarmFetchInst, each
// data access through WarmData.
func (h *Hierarchy) WarmRefs(b *RefBuf, now uint64) {
	for _, r := range b.refs {
		if r&ifetchRef != 0 {
			h.WarmFetchInst(r&^ifetchRef, now)
		} else {
			h.WarmData(r, now)
		}
	}
}
