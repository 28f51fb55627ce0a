package bpred

import "ucp/internal/recycle"

// Statistical corrector (SC): a GEHL-style perceptron-ish corrector that
// can revert the TAGE(-L) prediction when statistical evidence against it
// is strong. As in the paper's Fig. 6b, the absolute value of the SC
// output correlates with confidence but even saturated outputs miss
// around 10%, which is why UCP-Conf classifies SC-provided predictions
// as low confidence.

// scTables is the number of global-history GEHL tables (the bias table
// is separate).
const scTables = 4

// scHistMasks select the global history of each GEHL table from the
// GHR: its youngest 4, 11, 19 and 34 bits.
var scHistMasks = [scTables]uint64{1<<4 - 1, 1<<11 - 1, 1<<19 - 1, 1<<34 - 1}

// SC is the statistical corrector component.
type SC struct {
	bias    []int8 // indexed by (pc, tagePred)
	tables  [scTables][]int8
	ctrs    []int8 // one array holding bias and tables, from package recycle
	idxBits int

	// Adaptive use-threshold (O-GEHL style).
	theta int32
	tc    int8  // threshold-adaptation counter in [-8,7]. nbits:4
	scale int32 // weight of the TAGE direction inside the sum
}

// NewSC returns a statistical corrector with 2^idxBits counters per
// table and a 2^(idxBits+2)-entry bias table.
func NewSC(idxBits int) *SC {
	s := &SC{idxBits: idxBits, theta: 10, scale: 6}
	n := 1 << idxBits
	s.ctrs = recycle.Make[int8](4*n + scTables*n)
	s.bias = s.ctrs[: 4*n : 4*n]
	for i := range s.tables {
		lo := 4*n + i*n
		s.tables[i] = s.ctrs[lo : lo+n : lo+n]
	}
	return s
}

// Release hands the counters back to package recycle; the corrector
// must not be used afterwards.
func (s *SC) Release() {
	recycle.Free(s.ctrs)
	s.ctrs, s.bias, s.tables = nil, nil, [scTables][]int8{}
}

func (s *SC) biasIndex(pc uint64, tageTaken bool) int32 {
	v := (pc >> 2) << 1
	if tageTaken {
		v |= 1
	}
	return int32(v & uint64(len(s.bias)-1))
}

func (s *SC) tableIndex(pc uint64, h *Hist, i int) int32 {
	hist := h.GHR() & scHistMasks[i]
	v := (pc >> 2) ^ hist ^ (hist << 5) ^ uint64(i)*0x9e37
	return int32(v & uint64(len(s.tables[i])-1))
}

// compute evaluates the corrector against the incoming prediction
// (post-loop TAGE output) and fills the SC fields of p. It returns the
// possibly-reverted direction.
func (s *SC) compute(pc uint64, h *Hist, pre bool, p *Prediction) bool {
	p.scPreTaken = pre
	sum := int32(0)
	bi := s.biasIndex(pc, pre)
	p.scIndices[0] = bi
	sum += 2*int32(s.bias[bi]) + 1
	for i := 0; i < scTables; i++ {
		idx := s.tableIndex(pc, h, i)
		p.scIndices[i+1] = idx
		sum += 2*int32(s.tables[i][idx]) + 1
	}
	if pre {
		sum += s.scale
	} else {
		sum -= s.scale
	}
	p.SCSum = sum
	scTaken := sum >= 0
	if scTaken != pre && abs32(sum) >= s.theta {
		p.SCUsed = true
		return scTaken
	}
	return pre
}

// update trains the corrector toward the architectural outcome.
func (s *SC) update(taken bool, p *Prediction) {
	scTaken := p.SCSum >= 0
	mispredicted := scTaken != taken
	weak := abs32(p.SCSum) < s.theta
	if mispredicted || weak {
		s.bias[p.scIndices[0]] = bump6(s.bias[p.scIndices[0]], taken)
		for i := 0; i < scTables; i++ {
			idx := p.scIndices[i+1]
			s.tables[i][idx] = bump6(s.tables[i][idx], taken)
		}
	}
	// Threshold adaptation (O-GEHL): widen when the corrector commits
	// confident mistakes, narrow when weak sums are already correct.
	if mispredicted {
		s.tc++
		if s.tc == 7 {
			s.tc = 0
			if s.theta < 300 {
				s.theta++
			}
		}
	} else if weak {
		s.tc--
		if s.tc == -8 {
			s.tc = 0
			if s.theta > 4 {
				s.theta--
			}
		}
	}
}

func bump6(c int8, up bool) int8 {
	if up {
		if c < 31 {
			return c + 1
		}
		return c
	}
	if c > -32 {
		return c - 1
	}
	return c
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// StorageBits returns the modeled hardware budget.
func (s *SC) StorageBits() int {
	bits := len(s.bias) * 6
	for i := range s.tables {
		bits += len(s.tables[i]) * 6
	}
	return bits + 16
}
