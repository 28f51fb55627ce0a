package btb

import "ucp/internal/ckpt"

// Checkpoint hooks: the sampled fast-forward inserts every taken
// branch's target (FunctionalCommit), so tags, payloads and traffic
// stats all carry across a checkpoint; a set's order is its recency
// state. The sets' valid ways are a prefix, so the tags go through
// ckpt's set codec (only the valid prefix of each set), followed by the
// payloads of the valid ways only.

func saveStats(w *ckpt.Writer, s *Stats) {
	w.Uvarint(s.Lookups)
	w.Uvarint(s.Hits)
	w.Uvarint(s.Inserts)
	w.Uvarint(s.Evictions)
}

func loadStats(r *ckpt.Reader, s *Stats) {
	s.Lookups = r.Uvarint()
	s.Hits = r.Uvarint()
	s.Inserts = r.Uvarint()
	s.Evictions = r.Uvarint()
}

// SaveState serializes all mutable state for functional-warm
// checkpoints (internal/ckpt).
func (b *BTB) SaveState(w *ckpt.Writer) {
	w.Section("btb")
	w.Sets(b.tags, b.cfg.Ways, validBit)
	for i, tv := range b.tags {
		if tv == 0 {
			continue
		}
		e := &b.data[i]
		w.Uvarint(e.target)
		w.Byte(byte(e.kind))
	}
	saveStats(w, &b.stats)
}

// LoadState restores what SaveState wrote; errors surface on the
// reader. Empty ways get a zero payload, as in a freshly constructed BTB.
func (b *BTB) LoadState(r *ckpt.Reader) {
	r.Section("btb")
	r.SetsInto(b.tags, b.cfg.Ways, validBit)
	if r.Err() != nil {
		return
	}
	for i, tv := range b.tags {
		if tv == 0 {
			b.data[i] = entry{}
			continue
		}
		b.data[i] = entry{target: r.Uvarint(), kind: loadKind(r)}
	}
	loadStats(r, &b.stats)
}

// loadKind reads a BranchKind, rejecting bytes outside the four
// branch classes.
func loadKind(r *ckpt.Reader) BranchKind {
	k := BranchKind(r.Byte())
	if r.Err() == nil && k > KindReturn {
		r.Failf("btb: branch kind %d", k)
	}
	return k
}
