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

// ringWords is the number of 64-bit words in the history ring.
const ringWords = maxHistBits / 64

// maxFoldWidth bounds a folded register's width: a register and its
// guard bit must fit one 32-bit half of a lane word.
// TageConfig.Validate keeps every index and tag fold within it.
const maxFoldWidth = 31

// Folded history registers (Michaud/Seznec CSR): a register of width L
// maintains hash(h[0:len]) incrementally. A push shifts the new
// direction bit in, XORs out the bit leaving the len-deep window at
// position len mod L, and wraps the bit shifted past the top back into
// bit 0.
//
// Each tagged table has three registers: the index fold, the tag fold
// of the table's tag width and the tag fold one bit narrower. Tables
// 2k and 2k+1 have equal widths in each kind (one IdxBits; tag widths
// grow by one every two tables), so a table pair shares one 64-bit
// word per kind: table 2k's register is the lane at bit 0, table
// 2k+1's the lane at bit 32, and the bit above each lane is a guard
// bit, zero between pushes. A push updates a word, both lanes at once,
// with one shift, one XOR of a mask that holds the new bit and each
// table's outgoing bit at their places (one of eight precomputed per
// pair), and one guard wrap: the guard bits the shift filled are
// cleared and XORed L bits down into their lanes' bit 0. The index and
// tag hashes read a lane with a constant shift (none for the low
// lane): their masks drop the other lane.

// laneShape holds the construction constants of one kind's word in a
// table pair.
type laneShape struct {
	width uint64 // lane width L
	guard uint64 // guard bit of each live lane
	mask  uint64 // a lane's bits: (1 << L) - 1
}

// laneBits is the offset of a pair's second lane.
const laneBits = 32

// wrap folds the guard bits the shift filled back into their lanes.
func (s *laneShape) wrap(w uint64) uint64 {
	g := w & s.guard
	return w ^ g ^ g>>(s.width&63)
}

// pairShape is the shape of one table pair's three words, and the
// history lengths of its tables.
type pairShape struct {
	len [2]uint // 0 for the absent second table of an odd count
	// mix holds, for each new bit n and outgoing bits o0 and o1 of the
	// pair's tables (at index n<<2 | o1<<1 | o0), what a push XORs into
	// each word after the shift: n into bit 0 of each live lane, and
	// each outgoing bit into bit (len mod L) of its table's lane.
	mix             [8]pairFolds
	idx, tag1, tag2 laneShape
}

// histShape describes the folded registers a predictor needs; it is
// derived from the table configuration and shared by all Hist clones,
// which carry only the register values.
type histShape struct {
	tables int
	pairs  []pairShape
}

// newHistShape builds the shape of tables with the given history
// lengths, index widths and tag widths. Tables 2k and 2k+1 must have
// equal widths, every width in [2, maxFoldWidth] (the narrower tag fold
// is one bit under the tag width) and every length in [1, maxHistBits].
func newHistShape(lens, idxBits, tagBits []int) histShape {
	s := histShape{tables: len(lens), pairs: make([]pairShape, (len(lens)+1)/2)}
	for i, l := range lens {
		if l < 1 || l > maxHistBits || idxBits[i] < 1 || idxBits[i] > maxFoldWidth ||
			tagBits[i] < 2 || tagBits[i] > maxFoldWidth {
			panic("bpred: history length or fold width out of range")
		}
		p, j := &s.pairs[i/2], i%2
		p.len[j] = uint(l)
		off := uint(j * laneBits)
		in := pairFolds{1 << off, 1 << off, 1 << off}
		out := pairFolds{
			p.idx.addLane(j, l, idxBits[i]),
			p.tag1.addLane(j, l, tagBits[i]),
			p.tag2.addLane(j, l, tagBits[i]-1),
		}
		for x := range p.mix {
			if x>>2 == 1 {
				p.mix[x].xor(in)
			}
			if x>>j&1 == 1 {
				p.mix[x].xor(out)
			}
		}
	}
	return s
}

// addLane gives this kind's lane j (0 or 1) of a table with history
// length origLen the width compLen, and returns the bit the table's
// outgoing history bit toggles after the shift: bit (origLen mod
// compLen) of the lane.
func (s *laneShape) addLane(j, origLen, compLen int) uint64 {
	if j == 1 && uint64(compLen) != s.width {
		panic("bpred: a table pair's folds differ in width")
	}
	off := uint(j * laneBits)
	s.width = uint64(compLen)
	s.mask = 1<<uint(compLen) - 1
	s.guard |= 1 << (off + uint(compLen))
	return 1 << (off + uint(origLen%compLen))
}

// xor XORs each word of o into f.
func (f *pairFolds) xor(o pairFolds) {
	f.idx ^= o.idx
	f.tag1 ^= o.tag1
	f.tag2 ^= o.tag2
}

// lane returns lane j's register value from word w.
func (s *laneShape) lane(w uint64, j int) uint64 {
	return w >> (uint(j) * laneBits) & s.mask
}

// Hist is a branch history context: the global direction history ring,
// a path history, and the folded registers for every tagged table. It
// is a plain value: Clone and CopyFrom are struct copies.
type Hist struct {
	shape *histShape

	ring [ringWords]uint64
	pos  uint // next write position (bits written so far, mod capacity)

	path uint64 // path history (low bits of branch PCs)

	// ghr mirrors the youngest 64 direction bits for cheap SC indexing.
	ghr uint64

	// folds holds each table pair's three packed words (the first
	// len(shape.pairs) entries are live): Push and the TAGE index/tag
	// hashes touch all three per pair.
	folds [maxTables / 2]pairFolds
}

// pairFolds groups one table pair's packed folded registers, shaped by
// the matching pairShape.
type pairFolds struct {
	idx, tag1, tag2 uint64
}

func newHist(shape *histShape) *Hist { return &Hist{shape: shape} }

// Clone returns an independent copy of the history context.
func (h *Hist) Clone() *Hist {
	c := *h
	return &c
}

// CopyFrom overwrites this context with src (both must share a shape).
func (h *Hist) CopyFrom(src *Hist) { *h = *src }

// Push records the outcome of a conditional branch (or the taken-ness of
// any branch feeding history) into the context.
func (h *Hist) Push(pc uint64, taken bool) {
	var nb uint64
	if taken {
		nb = 1
	}
	// The outgoing bits are read before the ring slot is overwritten
	// (a table of length maxHistBits reads that very slot). pos and
	// ring are hoisted: the folds writes below cannot alias them, but
	// the compiler cannot prove that.
	pos := h.pos
	ring := &h.ring
	pairs := h.shape.pairs
	folds := h.folds[:len(pairs)]
	for k := range pairs {
		s := &pairs[k]
		b0 := (pos - s.len[0]) % maxHistBits
		b1 := (pos - s.len[1]) % maxHistBits
		o0 := ring[b0/64%ringWords] >> (b0 % 64) & 1
		o1 := ring[b1/64%ringWords] >> (b1 % 64) & 1
		m := &s.mix[(nb<<2|o1<<1|o0)%8]
		f := &folds[k]
		f.idx = s.idx.wrap(f.idx<<1 ^ m.idx)
		f.tag1 = s.tag1.wrap(f.tag1<<1 ^ m.tag1)
		f.tag2 = s.tag2.wrap(f.tag2<<1 ^ m.tag2)
	}
	i := pos % maxHistBits
	ring[i/64%ringWords] = ring[i/64%ringWords]&^(1<<(i%64)) | nb<<(i%64)
	h.pos = pos + 1
	h.path = (h.path << 3) ^ (pc >> 2)
	h.ghr = (h.ghr << 1) | nb
}

// GHR returns the youngest 64 direction bits (bit 0 = most recent).
func (h *Hist) GHR() uint64 { return h.ghr }
