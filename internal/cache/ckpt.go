package cache

import "ucp/internal/ckpt"

// Checkpoint hooks: the sampled fast-forward routes every fetch line
// and data reference through the WarmLine path (warm.go), mutating
// tags (whose order within a set is its recency state) and stats at
// every level plus the TLBs and the DRAM access counter. Tag arrays go
// through ckpt's set codec (ckpt.Sets / ckpt.SetsInto): a set's
// valid ways are its prefix (lru.ToFront fills front to back and no way is
// ever invalidated), so only their tags are written, and a set order
// lru.ToFront could not produce fails to load. The MSHR files
// are deliberately not serialized: warming never allocates an MSHR, so
// at the capture point — the end of the initial fast-forward, before
// any detailed window — they are empty in the running machine and empty
// in a freshly constructed one alike.

func saveStats(w *ckpt.Writer, s *Stats) {
	w.Uvarint(s.Accesses)
	w.Uvarint(s.Hits)
	w.Uvarint(s.Misses)
	w.Uvarint(s.Prefetches)
	w.Uvarint(s.PrefetchDropped)
	w.Uvarint(s.Evictions)
	w.Uvarint(s.MSHRStalls)
}

func loadStats(r *ckpt.Reader, s *Stats) {
	s.Accesses = r.Uvarint()
	s.Hits = r.Uvarint()
	s.Misses = r.Uvarint()
	s.Prefetches = r.Uvarint()
	s.PrefetchDropped = r.Uvarint()
	s.Evictions = r.Uvarint()
	s.MSHRStalls = r.Uvarint()
}

// SaveState serializes one cache level's warm-mutable state.
func (c *Cache) SaveState(w *ckpt.Writer) {
	w.Section("cache")
	ckpt.Sets(w, c.tags, c.ways, validBit)
	saveStats(w, &c.stats)
}

// LoadState restores state saved by SaveState into an identically
// configured level. Errors surface on the reader.
func (c *Cache) LoadState(r *ckpt.Reader) {
	r.Section("cache")
	ckpt.SetsInto(r, c.tags, c.ways, validBit)
	loadStats(r, &c.stats)
}

// SaveState serializes one TLB's warm-mutable state.
func (t *TLB) SaveState(w *ckpt.Writer) {
	w.Section("tlb")
	ckpt.Sets(w, t.tags, t.cfg.Ways, validBit)
	saveStats(w, &t.stats)
}

// LoadState restores state saved by SaveState.
func (t *TLB) LoadState(r *ckpt.Reader) {
	r.Section("tlb")
	ckpt.SetsInto(r, t.tags, t.cfg.Ways, validBit)
	loadStats(r, &t.stats)
}

// SaveState serializes the whole hierarchy: the four cache levels, the
// DRAM access counter, the three TLBs, and the warm-path duplicate
// filters (part of the functional machine state — dropping them would
// re-warm one line/page after restore and skew recency).
func (h *Hierarchy) SaveState(w *ckpt.Writer) {
	w.Section("hierarchy")
	h.L1I.SaveState(w)
	h.L1D.SaveState(w)
	h.L2.SaveState(w)
	h.LLC.SaveState(w)
	w.Uvarint(h.DRAM.Accesses)
	h.ITLB.SaveState(w)
	h.DTLB.SaveState(w)
	h.STLB.SaveState(w)
	w.Uvarint(h.warmIPage)
	w.Uvarint(h.warmDPage)
	w.Uvarint(h.warmDLine)
	w.Bool(h.warmIValid)
	w.Bool(h.warmDPValid)
	w.Bool(h.warmDLValid)
}

// LoadState restores state saved by SaveState into an identically
// configured hierarchy. Errors surface on the reader.
func (h *Hierarchy) LoadState(r *ckpt.Reader) {
	r.Section("hierarchy")
	h.L1I.LoadState(r)
	h.L1D.LoadState(r)
	h.L2.LoadState(r)
	h.LLC.LoadState(r)
	h.DRAM.Accesses = r.Uvarint()
	h.ITLB.LoadState(r)
	h.DTLB.LoadState(r)
	h.STLB.LoadState(r)
	h.warmIPage = r.Uvarint()
	h.warmDPage = r.Uvarint()
	h.warmDLine = r.Uvarint()
	h.warmIValid = r.Bool()
	h.warmDPValid = r.Bool()
	h.warmDLValid = r.Bool()
}
