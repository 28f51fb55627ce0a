package btb

import "ucp/internal/ckpt"

// Checkpoint hooks: the sampled fast-forward inserts every taken
// branch's target (FunctionalCommit), so tags, payloads and traffic
// stats all carry across a checkpoint; a set's order is its recency
// state. Both organizations serialize behind the TargetBuffer interface
// so the frontend and UCP stay agnostic of which one is configured.
// Each keeps its sets' valid ways as a prefix, so its tags go through
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

// SaveState implements TargetBuffer.
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

// LoadState implements TargetBuffer. Empty ways get a zero payload,
// as in a freshly constructed BTB.
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

// SaveState implements TargetBuffer. Each valid block writes its
// branch count, then each branch's offset, target and kind.
func (b *BlockBTB) SaveState(w *ckpt.Writer) {
	w.Section("blockbtb")
	w.Sets(b.tags, b.cfg.Ways, blockValid)
	for i, tv := range b.tags {
		if tv == 0 {
			continue
		}
		e := &b.data[i]
		n := 0
		for n < b.cfg.BranchesPerBlock && e[n].valid {
			n++
		}
		w.Uvarint(uint64(n))
		for _, br := range e[:n] {
			w.Byte(br.offset)
			w.Uvarint(br.target)
			w.Byte(byte(br.kind))
		}
	}
	saveStats(w, &b.stats)
}

// LoadState implements TargetBuffer.
func (b *BlockBTB) LoadState(r *ckpt.Reader) {
	r.Section("blockbtb")
	r.SetsInto(b.tags, b.cfg.Ways, blockValid)
	if r.Err() != nil {
		return
	}
	for i, tv := range b.tags {
		b.data[i] = blockEntry{}
		if tv == 0 {
			continue
		}
		n := r.Uvarint()
		if r.Err() == nil && n > uint64(b.cfg.BranchesPerBlock) {
			r.Failf("blockbtb: %d branches in a block, want at most %d", n, b.cfg.BranchesPerBlock)
		}
		if r.Err() != nil {
			return
		}
		for j := range n {
			b.data[i][j] = blockBranch{valid: true, offset: r.Byte(), target: r.Uvarint(), kind: loadKind(r)}
		}
	}
	loadStats(r, &b.stats)
}
