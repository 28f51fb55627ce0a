package cache

import "ucp/internal/lru"

// Functional warming for the sampled simulation mode: WarmLine performs
// a demand fill's *state* effects — recency update on a hit, fill with
// LRU eviction on a miss, recursing into lower levels — without
// touching the MSHR file or producing a ready cycle. The fast-forward path issues memory traffic
// at one instruction per nominal cycle, far denser than the detailed
// machine could sustain; routing it through FetchLine would grow an
// unbounded MSHR backlog that stalls the next detailed window.

// WarmLine implements Level: residency and recency update only. A miss
// takes the set's LRU way exactly as a demand fill does, with no MSHR
// and no ready cycle, and warms the lower level.
func (c *Cache) WarmLine(addr uint64) {
	la := c.lineAddr(addr)
	if !c.warmSet(la) {
		c.lower.WarmLine(la)
	}
}

// warmSet is WarmLine on this level alone: it updates the residency
// and recency of line la in one pass over its set (lru.Lookup, which
// tests the most recently used way first) and reports whether it hit.
// A level's warm state never depends on the levels below it, so the
// caller may warm the lower level with a missed line later, as long as
// the lower level sees its misses in order.
func (c *Cache) warmSet(la uint64) (hit bool) {
	c.stats.Accesses++
	base, want := c.locate(la)
	hit, evicted := lru.Lookup(c.tags[base:base+c.ways], want)
	if hit {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	if evicted != 0 {
		c.stats.Evictions++
	}
	return false
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
	h.warmITLB(addr, now)
	h.L1I.WarmLine(addr)
}

// warmITLB is WarmFetchInst's translation.
func (h *Hierarchy) warmITLB(addr uint64, now uint64) {
	if pg := addr >> uint(h.ITLB.cfg.PageBits); !h.warmIValid || pg != h.warmIPage {
		h.warmIPage, h.warmIValid = pg, true
		h.ITLB.Translate(addr, now)
	}
}

// WarmData is Load/Store's functional counterpart on the DTLB/L1D path,
// with the same consecutive-duplicate filtering per line and per page.
func (h *Hierarchy) WarmData(addr uint64, now uint64) {
	if la, ok := h.warmDTLB(addr, now); ok {
		h.L1D.WarmLine(la)
	}
}

// warmDTLB is WarmData's filtering and translation: it returns addr's
// line and whether the L1D is to be warmed with it (false for a repeat
// of the previous line).
func (h *Hierarchy) warmDTLB(addr uint64, now uint64) (la uint64, ok bool) {
	la = addr &^ (LineBytes - 1)
	if h.warmDLValid && la == h.warmDLine {
		return la, false
	}
	h.warmDLine, h.warmDLValid = la, true
	if pg := addr >> uint(h.DTLB.cfg.PageBits); !h.warmDPValid || pg != h.warmDPage {
		h.warmDPage, h.warmDPValid = pg, true
		h.DTLB.Translate(addr, now)
	}
	return la, true
}

// RefBuf records a warming skip's memory references in program order
// for WarmRefs to replay. Fetch lines and data lines share one stream
// because the L1I and L1D share the L2 and the LLC. A reference is kept
// as its line address, which selects the same cache line and, since a
// page holds whole lines (HierarchyConfig.Validate), the same TLB page
// as the full address; the freed low bit tags instruction fetches.
type RefBuf struct {
	refs []uint64
	// miss holds, during WarmRefs, the lines one level missed, in
	// order, for the next level.
	miss []uint64
}

// ifetchRef tags an instruction-fetch line in a RefBuf.
const ifetchRef = 1

// NewRefBuf returns an empty buffer with room for n references. The
// miss list grows to what the L1s miss in a chunk, usually a fraction
// of n.
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

// WarmRefs replays b in order, each fetch as WarmFetchInst and each
// data access as WarmData would, one level at a time: the TLBs and the
// L1s take every reference, then the L2 takes the L1 misses in order,
// then the LLC (and DRAM) the L2 misses. Every level sees the accesses
// it would see reference by reference, in the same order, and no
// level's warm state depends on another's (warmSet), so the result is
// the same. Each pass keeps one level's tags hot in the host's caches.
func (h *Hierarchy) WarmRefs(b *RefBuf, now uint64) {
	miss := b.miss[:0]
	for _, r := range b.refs {
		if r&ifetchRef != 0 {
			la := r &^ ifetchRef
			h.warmITLB(la, now)
			if !h.L1I.warmSet(la) {
				miss = append(miss, la)
			}
		} else if la, ok := h.warmDTLB(r, now); ok && !h.L1D.warmSet(la) {
			miss = append(miss, la)
		}
	}
	n := 0
	for _, la := range miss {
		if !h.L2.warmSet(la) {
			miss[n] = la
			n++
		}
	}
	for _, la := range miss[:n] {
		h.LLC.WarmLine(la)
	}
	b.miss = miss
}
