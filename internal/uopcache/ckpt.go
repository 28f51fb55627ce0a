package uopcache

import "ucp/internal/ckpt"

// Checkpoint hooks: the fast-forward's functional commit path feeds the
// demand entry builder, which inserts into the µ-op cache — so tags
// (whose order within a set is its recency state), entry payloads,
// stats, and the builder's open-entry accumulator all carry across a
// checkpoint. A set's valid ways are its prefix, so the tags go
// through ckpt's set codec and only valid ways write a payload.

// SaveState serializes all mutable cache state.
func (u *UopCache) SaveState(w *ckpt.Writer) {
	w.Section("uopcache")
	w.Sets(u.tags, u.cfg.Ways, validBit)
	for i, tv := range u.tags {
		if tv == 0 {
			continue
		}
		e := &u.data[i]
		w.Byte(e.Ops)
		w.Byte(e.Branches)
		w.Bool(e.EndsTaken)
		w.Bool(e.Prefetched)
		w.Bool(e.Used)
	}
	w.Uvarint(u.stats.Lookups)
	w.Uvarint(u.stats.Hits)
	w.Uvarint(u.stats.Inserts)
	w.Uvarint(u.stats.Evictions)
	w.Uvarint(u.stats.PrefetchInserts)
	w.Uvarint(u.stats.PrefetchUsed)
	w.Uvarint(u.stats.PrefetchEvictUnused)
	w.Uvarint(u.stats.Invalidations)
}

// LoadState restores state saved by SaveState into an identically
// configured cache. Empty ways get a zero payload, as in a freshly
// constructed cache. Errors surface on the reader.
func (u *UopCache) LoadState(r *ckpt.Reader) {
	r.Section("uopcache")
	r.SetsInto(u.tags, u.cfg.Ways, validBit)
	if r.Err() != nil {
		return
	}
	for i, tv := range u.tags {
		if tv == 0 {
			u.data[i] = Entry{}
			continue
		}
		u.data[i] = Entry{Ops: r.Byte(), Branches: r.Byte(),
			EndsTaken: r.Bool(), Prefetched: r.Bool(), Used: r.Bool()}
	}
	u.stats.Lookups = r.Uvarint()
	u.stats.Hits = r.Uvarint()
	u.stats.Inserts = r.Uvarint()
	u.stats.Evictions = r.Uvarint()
	u.stats.PrefetchInserts = r.Uvarint()
	u.stats.PrefetchUsed = r.Uvarint()
	u.stats.PrefetchEvictUnused = r.Uvarint()
	u.stats.Invalidations = r.Uvarint()
}

// SaveState serializes the builder's open-entry accumulator (the cache
// it inserts into is serialized separately).
func (b *Builder) SaveState(w *ckpt.Writer) {
	w.Section("uopbuilder")
	w.Bool(b.open)
	w.Uvarint(b.startPC)
	w.Uvarint(b.nextPC)
	w.Byte(b.ops)
	w.Byte(b.branches)
}

// LoadState restores state saved by SaveState.
func (b *Builder) LoadState(r *ckpt.Reader) {
	r.Section("uopbuilder")
	b.open = r.Bool()
	b.startPC = r.Uvarint()
	b.nextPC = r.Uvarint()
	b.ops = r.Byte()
	b.branches = r.Byte()
}
