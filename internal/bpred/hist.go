// Package bpred implements the conditional branch prediction stack the
// paper builds on: a bimodal base predictor, TAGE tagged-geometric
// tables, a loop predictor, a GEHL-style statistical corrector, their
// TAGE-SC-L composition, and the two branch-confidence estimators the
// paper compares (Seznec's storage-free TAGE confidence, "TAGE-Conf",
// and the paper's extended estimator, "UCP-Conf", §IV-A).
//
// History handling: predictors separate *tables* (shared, trained once
// per branch) from *history contexts* (Hist). The primary Hist follows
// the demand path; UCP's alternate-path walker clones the Hist at an H2P
// branch, flips the direction, and predicts down the alternate path with
// the clone without disturbing demand-path state — exactly the dual-GHR
// arrangement of §IV-C.
package bpred

// maxHistBits is the capacity of the global history ring. It bounds the
// longest usable TAGE history length.
const maxHistBits = 1024

// foldShape holds the construction constants of one cyclically-folded
// history register (Michaud/Seznec CSR), which maintains
// hash(h[0:origLen]) incrementally in compLen bits. The out-shift
// (origLen mod compLen) and width mask are precomputed: update runs ~36
// times per history push in the shipped configurations, and the integer
// division dominated it.
type foldShape struct {
	compLen  uint32
	outShift uint32 // origLen % compLen
	mask     uint32 // (1 << compLen) - 1
}

func newFoldShape(origLen, compLen int) foldShape {
	return foldShape{
		compLen:  uint32(compLen),
		outShift: uint32(origLen % compLen),
		mask:     (1 << uint(compLen)) - 1,
	}
}

// update returns comp with newBit shifted in and oldBit (the bit
// leaving the origLen-deep window) removed.
func (s foldShape) update(comp, newBit, oldBit uint32) uint32 {
	c := (comp << 1) | newBit
	c ^= oldBit << s.outShift
	c ^= c >> s.compLen
	return c & s.mask
}

// tableShape is one tagged table's history length and the shapes of its
// three folded registers: the index fold, the tag fold of width
// tagBits, and the tag fold of width tagBits-1.
type tableShape struct {
	len             int
	idx, tag1, tag2 foldShape
}

// histShape describes the folded registers a predictor needs; it is
// derived from the table configuration and shared by all Hist clones,
// which carry only the register values.
type histShape struct {
	tables []tableShape
}

// newHistShape builds the shape of tables with the given history
// lengths, index widths and tag widths.
func newHistShape(lens, idxBits, tagBits []int) histShape {
	s := histShape{tables: make([]tableShape, len(lens))}
	for i, l := range lens {
		s.tables[i] = tableShape{
			len:  l,
			idx:  newFoldShape(l, idxBits[i]),
			tag1: newFoldShape(l, tagBits[i]),
			tag2: newFoldShape(l, tagBits[i]-1),
		}
	}
	return s
}

// Hist is a branch history context: the global direction history ring,
// a path history, and the folded registers for every tagged table. It
// is a plain value: Clone and CopyFrom are struct copies.
type Hist struct {
	shape *histShape

	ring [maxHistBits / 64]uint64
	pos  int // next write position (bits written so far, mod capacity)

	path uint64 // path history (low bits of branch PCs)

	// ghr mirrors the youngest 64 direction bits for cheap SC indexing.
	ghr uint64

	// folds holds each table's three folded-register values
	// contiguously (the first len(shape.tables) entries are live): Push
	// and the TAGE index/tag hashes touch all three per table.
	folds [maxTables]tableFolds
}

// tableFolds groups one tagged table's folded-register values, shaped
// by the matching tableShape.
type tableFolds struct {
	idx, tag1, tag2 uint32
}

func newHist(shape *histShape) *Hist { return &Hist{shape: shape} }

// Clone returns an independent copy of the history context.
func (h *Hist) Clone() *Hist {
	c := *h
	return &c
}

// CopyFrom overwrites this context with src (both must share a shape).
func (h *Hist) CopyFrom(src *Hist) { *h = *src }

// bitAt returns the direction bit written `age` updates ago (age 0 is
// the most recent).
func (h *Hist) bitAt(age int) uint32 {
	idx := (h.pos - 1 - age) & (maxHistBits - 1)
	return uint32(h.ring[idx/64]>>(uint(idx)%64)) & 1
}

// Push records the outcome of a conditional branch (or the taken-ness of
// any branch feeding history) into the context.
func (h *Hist) Push(pc uint64, taken bool) {
	var nb uint32
	if taken {
		nb = 1
	}
	// Collect outgoing bits before overwriting. bitAt is inlined with
	// pos and ring hoisted: the folds writes below cannot alias them,
	// but the compiler cannot prove that.
	tables := h.shape.tables
	folds := h.folds[:len(tables)]
	pos := h.pos
	ring := &h.ring
	for i := range tables {
		s := &tables[i]
		bi := (pos - s.len) & (maxHistBits - 1)
		ob := uint32(ring[bi/64]>>(uint(bi)%64)) & 1
		f := &folds[i]
		f.idx = s.idx.update(f.idx, nb, ob)
		f.tag1 = s.tag1.update(f.tag1, nb, ob)
		f.tag2 = s.tag2.update(f.tag2, nb, ob)
	}
	idx := h.pos & (maxHistBits - 1)
	if nb == 1 {
		h.ring[idx/64] |= 1 << (uint(idx) % 64)
	} else {
		h.ring[idx/64] &^= 1 << (uint(idx) % 64)
	}
	h.pos++
	h.path = (h.path << 3) ^ (pc >> 2)
	h.ghr = (h.ghr << 1) | uint64(nb)
}

// GHR returns the youngest 64 direction bits (bit 0 = most recent).
func (h *Hist) GHR() uint64 { return h.ghr }
