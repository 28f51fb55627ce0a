package bpred

import "ucp/internal/recycle"

// LoopPredictor captures branches with regular trip counts, following the
// L component of TAGE-SC-L: an entry learns the number of consecutive
// same-direction outcomes before a flip and, once confident, predicts the
// flip exactly. The paper (Fig. 6b) observes that confident loop
// predictions miss at <3%, so UCP-Conf treats them as high confidence.
type LoopPredictor struct {
	entries []loopEntry
	idxBits int
	// withLoop is the adaptive "trust the loop predictor" counter. nbits:4
	withLoop int8
}

type loopEntry struct {
	tag      uint16
	pastIter uint16 // learned same-direction run length
	currIter uint16
	conf     uint8 // [0,3]; provide only at 3. nbits:2
	age      uint8 // replacement age. nbits:8
	dir      bool  // direction during the run ("body" direction)
	valid    bool
}

// loopTagBits is the tag width of loop entries.
const loopTagBits = 14

// NewLoopPredictor returns a loop predictor with 2^idxBits entries.
func NewLoopPredictor(idxBits int) *LoopPredictor {
	return &LoopPredictor{
		entries: recycle.Make[loopEntry](1 << idxBits),
		idxBits: idxBits,
	}
}

// Release hands the entries back to package recycle; the predictor must
// not be used afterwards.
func (l *LoopPredictor) Release() {
	recycle.Free(l.entries)
	l.entries = nil
}

func (l *LoopPredictor) index(pc uint64) int32 {
	return int32((pc >> 2) & uint64(len(l.entries)-1))
}

func (l *LoopPredictor) tag(pc uint64) uint16 {
	return uint16((pc >> uint(2+l.idxBits)) & ((1 << loopTagBits) - 1))
}

// predict fills the loop fields of p.
func (l *LoopPredictor) predict(pc uint64, p *Prediction) {
	idx := l.index(pc)
	e := &l.entries[idx]
	if !e.valid || e.tag != l.tag(pc) {
		p.loopHit = -1
		return
	}
	p.loopHit = idx
	p.loopValid = e.conf >= 3 && l.withLoop >= 0
	if e.currIter+1 >= e.pastIter {
		p.loopTaken = !e.dir // the flip (loop exit) is due
	} else {
		p.loopTaken = e.dir
	}
}

// update trains the loop predictor. tageWrong reports whether the rest of
// the predictor mispredicted (allocation trigger).
func (l *LoopPredictor) update(pc uint64, taken bool, p *Prediction, tageWrong bool) {
	if p.loopHit >= 0 {
		e := &l.entries[p.loopHit]
		if p.loopValid {
			if p.loopTaken == taken {
				if l.withLoop < 7 {
					l.withLoop++
				}
				if e.age < 255 {
					e.age++
				}
			} else {
				if l.withLoop > -8 {
					l.withLoop--
				}
				// A confident miss invalidates the entry.
				*e = loopEntry{}
				return
			}
		}
		if taken == e.dir {
			e.currIter++
			if e.pastIter != 0 && e.currIter > e.pastIter {
				// Run longer than learned: the entry is stale.
				*e = loopEntry{}
			}
		} else {
			// Flip observed: check run-length stability.
			run := e.currIter + 1
			if e.pastIter == 0 {
				e.pastIter = run
			} else if e.pastIter == run {
				if e.conf < 3 {
					e.conf++
				}
			} else {
				e.pastIter = run
				e.conf = 0
			}
			e.currIter = 0
		}
		return
	}
	// Allocate on a misprediction elsewhere, and only when the outcome
	// is not-taken: loop exits fall through, so allocating at a taken
	// outcome would capture alternating branches as 1-trip "loops" and
	// churn. The body direction is the opposite of the exit (LTAGE
	// convention).
	if !tageWrong || taken {
		return
	}
	idx := l.index(pc)
	e := &l.entries[idx]
	if e.valid && e.age > 0 {
		e.age--
		return
	}
	*e = loopEntry{tag: l.tag(pc), dir: true, valid: true, age: 31}
}

// StorageBits returns the modeled hardware budget.
func (l *LoopPredictor) StorageBits() int {
	entryBits := loopTagBits + 16 + 16 + 2 + 8 + 1 + 1
	return len(l.entries)*entryBits + 4
}
