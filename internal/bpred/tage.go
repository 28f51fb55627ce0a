package bpred

import (
	"fmt"
	"math"
	"math/bits"

	"ucp/internal/recycle"
)

// TAGE: a TAgged GEometric history length predictor (Seznec & Michaud),
// the main component of TAGE-SC-L. The implementation keeps the pieces
// the paper's confidence estimator depends on explicit: the HitBank (the
// matching table with the longest history), the AltBank (second
// longest), the provider counter value, and the bimodal >1-in-8 recent
// miss heuristic.

// maxTables bounds the number of tagged tables a configuration may use.
const maxTables = 16

// Source identifies which TAGE-SC-L component provided the final
// direction prediction (the paper's Fig. 6/7 taxonomy).
type Source uint8

const (
	// SrcBimodal: the bimodal base table provided.
	SrcBimodal Source = iota
	// SrcHitBank: the longest-history matching tagged table provided.
	SrcHitBank
	// SrcAltBank: the alternate (second longest) tagged table provided.
	SrcAltBank
	// SrcLoop: the loop predictor provided.
	SrcLoop
	// SrcSC: the statistical corrector reverted the prediction.
	SrcSC
	// NumSources is the number of provider kinds.
	NumSources
)

var sourceNames = [NumSources]string{"Bimodal", "HitBank", "AltBank", "Loop", "SC"}

// String returns the provider name.
func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return "?"
}

// Prediction carries a direction prediction plus everything needed to
// update the predictor and estimate confidence.
type Prediction struct {
	// Taken is the final predicted direction.
	Taken bool
	// Source is the component that determined Taken.
	Source Source
	// TageSource is the TAGE-internal provider (SrcBimodal, SrcHitBank,
	// or SrcAltBank), preserved even when loop/SC determine Taken.
	TageSource Source

	// TageTaken is the TAGE-only prediction (pre loop/SC).
	TageTaken bool

	// Provider counter, centered: for a b-bit counter with raw range
	// [0,2^b), the centered value is raw - 2^(b-1), so a 3-bit counter
	// spans [-4,3] and the 2-bit bimodal spans [-2,1] (Fig. 6a x-axis).
	// Saturated means raw==0 or raw==2^b-1.
	ProviderCtr       int8 // nbits:3 (tagged-table counters; bimodal uses [-2,1])
	ProviderSat       bool
	BimodalRecentMiss bool // ≥1 miss in the bimodal's last 8 provisions

	hitBank, altBank int // 1-based table numbers; 0 = none/bimodal
	altTaken         bool
	pseudoNewAlloc   bool
	bimIdx           int32
	indices          [maxTables]int32
	tags             [maxTables]uint16

	// Loop predictor state.
	loopHit   int32 // entry index, -1 if miss
	loopValid bool  // confident enough to provide
	loopTaken bool

	// Statistical corrector state.
	SCSum      int32
	SCUsed     bool // SC reverted the prediction (Source == SrcSC)
	scIndices  [scTables + 1]int32
	scPreTaken bool // prediction SC was applied to
}

// HitBankNum returns the 1-based hit bank (0 if the bimodal provided).
func (p *Prediction) HitBankNum() int { return p.hitBank }

// AltBankNum returns the 1-based alternate bank (0 if bimodal).
func (p *Prediction) AltBankNum() int { return p.altBank }

// TageConfig sizes a TAGE instance.
//
//ucplint:config
type TageConfig struct {
	BimodalBits int // log2 entries of the bimodal table
	Tables      int // number of tagged tables
	MinHist     int // shortest tagged history length
	MaxHist     int // longest tagged history length
	IdxBits     int // log2 entries per tagged table
	TagBase     int // tag width of table 1; grows by 1 every 2 tables
	CtrBits     int // prediction counter width (3 in the literature)
}

// Validate rejects TAGE geometries outside the modeled hardware: the
// Prediction bookkeeping arrays hold maxTables banks, tags are uint16,
// counters are uint8, and the centered provider counter must fit int8.
// It also holds the bounds the packed folded history relies on (hist.go):
// every fold is 1 to 26 bits wide (IdxBits, and tags of TagBase and one
// bit narrower, so TagBase is at least 2), and every table's history
// length, as geometricLens computes it, fits the maxHistBits ring.
func (c TageConfig) Validate() error {
	if c.BimodalBits <= 0 || c.BimodalBits > 26 {
		return fmt.Errorf("bpred: BimodalBits must be in [1,26], got %d", c.BimodalBits)
	}
	if c.Tables <= 0 || c.Tables > maxTables {
		return fmt.Errorf("bpred: Tables must be in [1,%d], got %d", maxTables, c.Tables)
	}
	if c.MinHist <= 0 {
		return fmt.Errorf("bpred: MinHist must be positive, got %d", c.MinHist)
	}
	if c.MaxHist < c.MinHist {
		return fmt.Errorf("bpred: MaxHist %d below MinHist %d", c.MaxHist, c.MinHist)
	}
	if c.IdxBits <= 0 || c.IdxBits > 26 {
		return fmt.Errorf("bpred: IdxBits must be in [1,26], got %d", c.IdxBits)
	}
	if c.TagBase < 2 || c.TagBase > 15 {
		return fmt.Errorf("bpred: TagBase must be in [2,15] (the narrower tag fold is TagBase-1 bits), got %d", c.TagBase)
	}
	if c.CtrBits <= 0 || c.CtrBits > 8 {
		return fmt.Errorf("bpred: CtrBits must be in [1,8], got %d", c.CtrBits)
	}
	if c.MaxHist > maxHistBits {
		return fmt.Errorf("bpred: MaxHist %d exceeds the %d-bit history ring", c.MaxHist, maxHistBits)
	}
	// Lengths strictly increase, so the last is the longest; it can
	// pass MaxHist when MinHist+Tables-1 does.
	if lens := geometricLens(c); lens[len(lens)-1] > maxHistBits {
		return fmt.Errorf("bpred: table %d's history length %d exceeds the %d-bit history ring", len(lens), lens[len(lens)-1], maxHistBits)
	}
	return nil
}

type tageEntry struct {
	ctr uint8 // [0, 2^CtrBits); nbits:3 in every shipped config
	tag uint16
	u   uint8 // usefulness [0,3]. nbits:2
}

// TAGE is the tagged-geometric predictor core.
type TAGE struct {
	cfg     TageConfig
	shape   histShape
	bimodal []uint8 // 2-bit counters
	// all holds every tagged table, from package recycle: table i's
	// entry j is all[i<<IdxBits | j].
	all      []tageEntry
	tagBits  []int
	lens     []int
	useAltOn int8  // USE_ALT_ON_NA in [-8,7]. nbits:4
	bimHist  uint8 // correctness of last 8 bimodal-provided predictions (1=miss). nbits:8
	tick     int
	lfsr     uint32 // allocation randomness (deterministic)

	// Per-table index/tag hashing constants, precomputed at construction
	// so the predict path does no divisions or shift reconstruction.
	idxMask uint64
	hash    [maxTables]tableHash
}

// tableHash is one tagged table's index and tag hashing constants.
type tableHash struct {
	pcShift  uint64
	base     uint64 // first entry in TAGE.all
	pathMask uint64
	tagMask  uint64
}

// geometricLens computes Tables history lengths between MinHist and
// MaxHist in geometric progression.
func geometricLens(cfg TageConfig) []int {
	lens := make([]int, cfg.Tables)
	for i := range lens {
		if cfg.Tables == 1 {
			lens[i] = cfg.MinHist
			continue
		}
		ratio := float64(cfg.MaxHist) / float64(cfg.MinHist)
		exp := float64(i) / float64(cfg.Tables-1)
		l := int(float64(cfg.MinHist)*math.Pow(ratio, exp) + 0.5)
		if i > 0 && l <= lens[i-1] {
			l = lens[i-1] + 1
		}
		lens[i] = l
	}
	return lens
}

// NewTAGE constructs a TAGE predictor from cfg.
func NewTAGE(cfg TageConfig) *TAGE {
	if cfg.Tables > maxTables {
		panic("bpred: too many TAGE tables")
	}
	t := &TAGE{cfg: cfg, lfsr: 0xace1}
	t.lens = geometricLens(cfg)
	t.bimodal = recycle.Make[uint8](1 << cfg.BimodalBits)
	for i := range t.bimodal {
		t.bimodal[i] = 2 // weakly taken
	}
	t.tagBits = make([]int, cfg.Tables)
	idxBits := make([]int, cfg.Tables)
	t.all = recycle.Make[tageEntry](cfg.Tables << cfg.IdxBits)
	for i := range t.tagBits {
		t.tagBits[i] = min(cfg.TagBase+i/2, 15)
		idxBits[i] = cfg.IdxBits
	}
	t.shape = newHistShape(t.lens, idxBits, t.tagBits)
	t.idxMask = uint64(1<<cfg.IdxBits) - 1
	for i := 0; i < cfg.Tables; i++ {
		t.hash[i] = tableHash{
			pcShift:  uint64(2 + ((i + 3) % 7)),
			base:     uint64(i << cfg.IdxBits),
			pathMask: 1<<uint(min(t.lens[i], 16)) - 1,
			tagMask:  uint64(1<<t.tagBits[i]) - 1,
		}
	}
	return t
}

// table returns tagged table i's entries.
func (t *TAGE) table(i int) []tageEntry {
	n := 1 << t.cfg.IdxBits
	return t.all[i*n : (i+1)*n]
}

// Release hands the bimodal and tagged tables back to package recycle;
// the predictor must not be used afterwards.
func (t *TAGE) Release() {
	recycle.Free(t.bimodal)
	recycle.Free(t.all)
	t.bimodal, t.all = nil, nil
}

// Shape exposes the history shape so composites can build Hist contexts.
func (t *TAGE) Shape() *histShape { return &t.shape }

// NewHist returns a history context compatible with this predictor.
func (t *TAGE) NewHist() *Hist { return newHist(&t.shape) }

func (t *TAGE) rand() uint32 {
	// 16-bit Galois LFSR: cheap deterministic allocation randomness.
	lsb := t.lfsr & 1
	t.lfsr >>= 1
	if lsb != 0 {
		t.lfsr ^= 0xb400
	}
	return t.lfsr
}

func (t *TAGE) bimIndex(pc uint64) int32 {
	return int32((pc >> 2) & uint64(len(t.bimodal)-1))
}

func ctrTaken(ctr uint8, bits int) bool { return ctr >= 1<<(bits-1) }

func ctrSaturated(ctr uint8, bits int) bool {
	return ctr == 0 || ctr == uint8(1<<bits)-1
}

func bump(ctr uint8, up bool, bits int) uint8 {
	if up {
		if ctr < uint8(1<<bits)-1 {
			return ctr + 1
		}
		return ctr
	}
	if ctr > 0 {
		return ctr - 1
	}
	return 0
}

// Predict computes the TAGE prediction for pc under history context h.
// It fills the TAGE portion of a Prediction; callers must not reuse a
// Prediction across different Predict calls.
func (t *TAGE) Predict(h *Hist, pc uint64) Prediction {
	var p Prediction
	t.PredictInto(&p, h, pc)
	return p
}

// PredictInto is Predict writing into caller-owned storage, so hot
// paths can reuse one long-lived Prediction instead of letting a fresh
// one escape to the heap at every branch. p is fully overwritten.
func (t *TAGE) PredictInto(p *Prediction, h *Hist, pc uint64) {
	*p = Prediction{}
	p.loopHit = -1
	p.bimIdx = t.bimIndex(pc)
	// Index and tag of every table in one pass, from the longest
	// history down, a table pair at a time, into a bitmask of the
	// tables whose entry matches: bit i for table i+1.
	var hits uint32
	for k := uint(len(t.shape.pairs)); k > 0; {
		k--
		f := &h.folds[k%(maxTables/2)]
		if 2*k+1 < uint(t.cfg.Tables) {
			hits = hits<<1 | b2u(t.probe(p, 2*k+1, pc, h.path, f.idx>>laneBits, f.tag1>>laneBits, f.tag2>>laneBits))
		}
		hits = hits<<1 | b2u(t.probe(p, 2*k, pc, h.path, f.idx, f.tag1, f.tag2))
	}
	// The hit bank is the longest-history match, the alt bank the next
	// longest below it.
	p.hitBank = bits.Len32(hits)
	p.altBank = bits.Len32(hits & (1<<p.hitBank>>1 - 1))
	bimTaken := ctrTaken(t.bimodal[p.bimIdx], 2)
	if p.hitBank == 0 {
		// Bimodal provides.
		p.TageTaken = bimTaken
		p.Source = SrcBimodal
		p.TageSource = SrcBimodal
		p.ProviderCtr = int8(t.bimodal[p.bimIdx]) - 2
		p.ProviderSat = ctrSaturated(t.bimodal[p.bimIdx], 2)
		p.BimodalRecentMiss = t.bimHist != 0
		p.altTaken = bimTaken
		p.Taken = p.TageTaken
		return
	}
	hit := &t.all[p.indices[p.hitBank-1]]
	hitTaken := ctrTaken(hit.ctr, t.cfg.CtrBits)
	var altTaken bool
	var altCtr uint8
	var altBits int
	if p.altBank != 0 {
		alt := &t.all[p.indices[p.altBank-1]]
		altTaken = ctrTaken(alt.ctr, t.cfg.CtrBits)
		altCtr, altBits = alt.ctr, t.cfg.CtrBits
	} else {
		altTaken = bimTaken
		altCtr, altBits = t.bimodal[p.bimIdx], 2
	}
	p.altTaken = altTaken
	// Newly allocated entries (weak counter, useless bit clear) are less
	// trustworthy than the alternate prediction when USE_ALT_ON_NA says so.
	mid := uint8(1 << (t.cfg.CtrBits - 1))
	p.pseudoNewAlloc = hit.u == 0 && (hit.ctr == mid || hit.ctr == mid-1)
	useAlt := p.pseudoNewAlloc && t.useAltOn >= 0
	if useAlt {
		p.TageTaken = altTaken
		if p.altBank != 0 {
			p.Source = SrcAltBank
			p.TageSource = SrcAltBank
			p.ProviderCtr = int8(altCtr) - int8(1<<(altBits-1))
			p.ProviderSat = ctrSaturated(altCtr, altBits)
		} else {
			p.Source = SrcBimodal
			p.TageSource = SrcBimodal
			p.ProviderCtr = int8(t.bimodal[p.bimIdx]) - 2
			p.ProviderSat = ctrSaturated(t.bimodal[p.bimIdx], 2)
			p.BimodalRecentMiss = t.bimHist != 0
		}
	} else {
		p.TageTaken = hitTaken
		p.Source = SrcHitBank
		p.TageSource = SrcHitBank
		p.ProviderCtr = int8(hit.ctr) - int8(mid)
		p.ProviderSat = ctrSaturated(hit.ctr, t.cfg.CtrBits)
	}
	p.Taken = p.TageTaken
}

// probe completes table i's index and tag from its folded registers
// (the lanes at bit 0 of idx, tag1 and tag2; the masks drop the rest),
// records them in p, and reports whether the entry matches.
func (t *TAGE) probe(p *Prediction, i uint, pc, path, idx, tag1, tag2 uint64) bool {
	k := &t.hash[i%maxTables]
	e := k.base + (pc>>2^pc>>(k.pcShift%64)^idx^path&k.pathMask)&t.idxMask
	tag := uint16((pc>>2 ^ tag1 ^ tag2<<1) & k.tagMask)
	p.indices[i%maxTables] = int32(e)
	p.tags[i%maxTables] = tag
	return t.all[e].tag == tag
}

// b2u converts a bool to 0 or 1 without a branch.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Update trains the TAGE tables given the architectural outcome. The
// Prediction must come from a Predict call against the history context
// that was current at prediction time.
func (t *TAGE) Update(pc uint64, taken bool, p *Prediction) {
	correct := p.TageTaken == taken
	// USE_ALT_ON_NA training.
	if p.hitBank > 0 && p.pseudoNewAlloc {
		hit := &t.all[p.indices[p.hitBank-1]]
		hitTaken := ctrTaken(hit.ctr, t.cfg.CtrBits)
		if hitTaken != p.altTaken {
			if p.altTaken == taken {
				if t.useAltOn < 7 {
					t.useAltOn++
				}
			} else if t.useAltOn > -8 {
				t.useAltOn--
			}
		}
	}
	// Allocate on a TAGE misprediction if a longer history could help.
	if !correct && p.hitBank < t.cfg.Tables {
		t.allocate(taken, p)
	}
	// Train the provider chain.
	if p.hitBank > 0 {
		hit := &t.all[p.indices[p.hitBank-1]]
		hitTaken := ctrTaken(hit.ctr, t.cfg.CtrBits)
		// Usefulness: the hit entry proved better (or worse) than alt.
		if hitTaken != p.altTaken {
			if hitTaken == taken {
				if hit.u < 3 {
					hit.u++
				}
			} else if hit.u > 0 {
				hit.u--
			}
		}
		hit.ctr = bump(hit.ctr, taken, t.cfg.CtrBits)
		// When the provider was a fresh allocation, also train the alt.
		if hit.u == 0 && p.pseudoNewAlloc {
			if p.altBank > 0 {
				alt := &t.all[p.indices[p.altBank-1]]
				alt.ctr = bump(alt.ctr, taken, t.cfg.CtrBits)
			} else {
				t.bimodal[p.bimIdx] = bump(t.bimodal[p.bimIdx], taken, 2)
			}
		}
	} else {
		t.bimodal[p.bimIdx] = bump(t.bimodal[p.bimIdx], taken, 2)
	}
	// Track bimodal-provided correctness for the >1-in-8 heuristic.
	if p.TageSource == SrcBimodal {
		miss := uint8(0)
		if p.TageTaken != taken {
			miss = 1
		}
		t.bimHist = t.bimHist<<1 | miss
	}
	// Periodic graceful reset of usefulness bits.
	t.tick++
	if t.tick >= 1<<18 {
		t.tick = 0
		for i := range t.all {
			t.all[i].u >>= 1
		}
	}
}

// allocate installs up to two new entries in tables with longer history
// than the provider, Seznec-style (decaying u on failure).
func (t *TAGE) allocate(taken bool, p *Prediction) {
	start := p.hitBank // 0-based index of first candidate table
	if t.rand()&3 == 0 && start+1 < t.cfg.Tables {
		start++
	}
	allocated := 0
	for i := start; i < t.cfg.Tables && allocated < 2; i++ {
		e := &t.all[p.indices[i]]
		if e.u == 0 {
			e.tag = p.tags[i]
			if taken {
				e.ctr = uint8(1 << (t.cfg.CtrBits - 1))
			} else {
				e.ctr = uint8(1<<(t.cfg.CtrBits-1)) - 1
			}
			e.u = 0
			allocated++
			i++ // skip the adjacent table to spread allocations
		} else {
			e.u--
		}
	}
}

// StorageBits returns the modeled hardware budget of the TAGE tables.
func (t *TAGE) StorageBits() int {
	bits := len(t.bimodal) * 2
	for i := range t.tagBits {
		bits += len(t.table(i)) * (t.cfg.CtrBits + 2 + t.tagBits[i])
	}
	bits += 4 + 8 // USE_ALT_ON_NA + bimodal miss history
	return bits
}
