package btb

import (
	"math"

	"ucp/internal/ckpt"
)

// Checkpoint hooks: the sampled fast-forward inserts every taken
// branch's target (FunctionalCommit), so tags, payloads, LRU clocks,
// and traffic stats all carry across a checkpoint. Both organizations
// serialize behind the TargetBuffer interface so the frontend and UCP
// stay agnostic of which one is configured. The instruction BTB fills
// each set's ways in order and never invalidates one, so its tags go
// through ckpt's set codec (only the valid prefix of each set), and
// only valid ways carry a payload; the block BTB writes every entry.

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
		w.Uvarint(uint64(e.lru))
	}
	w.Uvarint(uint64(b.clock))
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
		b.data[i] = entry{target: r.Uvarint(), kind: loadKind(r), lru: loadU32(r)}
	}
	b.clock = loadU32(r)
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

// loadU32 reads a 32-bit LRU stamp or clock, rejecting wider values.
func loadU32(r *ckpt.Reader) uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Failf("btb: stamp %d exceeds 32 bits", v)
	}
	return uint32(v)
}

// SaveState implements TargetBuffer.
func (b *BlockBTB) SaveState(w *ckpt.Writer) {
	w.Section("blockbtb")
	w.Uvarint(uint64(len(b.data)))
	for i := range b.data {
		e := &b.data[i]
		w.Bool(e.valid)
		w.Uvarint(e.tag)
		w.Uvarint(e.lru)
		for j := range e.branches {
			br := &e.branches[j]
			w.Bool(br.valid)
			w.Byte(br.offset)
			w.Uvarint(br.target)
			w.Byte(byte(br.kind))
		}
	}
	w.Uvarint(b.clock)
	saveStats(w, &b.stats)
}

// LoadState implements TargetBuffer.
func (b *BlockBTB) LoadState(r *ckpt.Reader) {
	r.Section("blockbtb")
	n := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if n != uint64(len(b.data)) {
		r.Failf("blockbtb: %d entries, want %d", n, len(b.data))
		return
	}
	for i := range b.data {
		e := &b.data[i]
		e.valid = r.Bool()
		e.tag = r.Uvarint()
		e.lru = r.Uvarint()
		for j := range e.branches {
			br := &e.branches[j]
			br.valid = r.Bool()
			br.offset = r.Byte()
			br.target = r.Uvarint()
			br.kind = loadKind(r)
		}
	}
	b.clock = r.Uvarint()
	loadStats(r, &b.stats)
}
