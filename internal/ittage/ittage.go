// Package ittage implements the ITTAGE indirect branch target predictor
// (Seznec, "A 64-Kbytes ITTAGE indirect branch predictor"). The paper's
// baseline frontend uses a 64KB ITTAGE (Table II) and UCP optionally adds
// a dedicated 4KB instance (Alt-Ind) so alternate-path generation can
// continue past indirect branches (§IV-C).
//
// History contexts are tiny value types (Hist), so UCP can snapshot the
// demand-path history and walk an alternate path without perturbing it.
package ittage

import (
	"fmt"

	"ucp/internal/recycle"
)

// Hist is the predictor's history context: a 64-bit direction/target
// history and a path register. It is copied by value for alternate-path
// walks.
type Hist struct {
	ghr  uint64
	path uint64
}

// Push records a taken control transfer (or conditional outcome) into
// the context. Target bits enrich the history so same-direction paths
// with different targets diverge.
func (h *Hist) Push(pc, target uint64, taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	h.ghr = h.ghr<<2 | (bit << 1) | ((target >> 2) & 1)
	h.path = h.path<<3 ^ (pc >> 2)
}

// Config sizes an ITTAGE instance.
//
//ucplint:config
type Config struct {
	BaseBits int // log2 entries of the tagless base target cache
	Tables   int
	MinHist  int
	MaxHist  int // capped at 32 (two bits of context per transfer)
	IdxBits  int // log2 entries per tagged table
	TagBits  int
}

// Validate rejects ITTAGE geometries outside the modeled hardware: the
// Lookup bookkeeping arrays hold 16 banks and tags are uint16.
func (c Config) Validate() error {
	if c.BaseBits <= 0 || c.BaseBits > 24 {
		return fmt.Errorf("ittage: BaseBits must be in [1,24], got %d", c.BaseBits)
	}
	if c.Tables <= 0 || c.Tables > 16 {
		return fmt.Errorf("ittage: Tables must be in [1,16], got %d", c.Tables)
	}
	if c.MinHist <= 0 {
		return fmt.Errorf("ittage: MinHist must be positive, got %d", c.MinHist)
	}
	if c.MaxHist < c.MinHist {
		return fmt.Errorf("ittage: MaxHist %d below MinHist %d", c.MaxHist, c.MinHist)
	}
	if c.IdxBits <= 0 || c.IdxBits > 24 {
		return fmt.Errorf("ittage: IdxBits must be in [1,24], got %d", c.IdxBits)
	}
	if c.TagBits <= 0 || c.TagBits > 16 {
		return fmt.Errorf("ittage: TagBits must be in [1,16], got %d", c.TagBits)
	}
	return nil
}

// Config64KB approximates the paper's 64KB baseline ITTAGE.
func Config64KB() Config {
	return Config{BaseBits: 12, Tables: 8, MinHist: 2, MaxHist: 32, IdxBits: 10, TagBits: 10}
}

// Config4KB approximates UCP's 4KB Alt-Ind predictor.
func Config4KB() Config {
	return Config{BaseBits: 8, Tables: 4, MinHist: 2, MaxHist: 16, IdxBits: 7, TagBits: 9}
}

type entry struct {
	valid  bool
	tag    uint16
	target uint64
	ctr    uint8 // confidence [0,3]. nbits:2
	u      uint8 // usefulness [0,3]. nbits:2
}

// Predictor is an ITTAGE indirect target predictor.
type Predictor struct {
	cfg    Config
	base   []uint64
	tables [][]entry
	all    []entry // one array holding every table, from package recycle
	lens   []int
	hist   Hist
	tick   int
	lfsr   uint32
}

// New constructs a predictor from cfg.
func New(cfg Config) *Predictor {
	if cfg.MaxHist > 32 {
		cfg.MaxHist = 32
	}
	p := &Predictor{cfg: cfg, lfsr: 0x1d87}
	p.base = recycle.Make[uint64](1 << cfg.BaseBits)
	p.tables = make([][]entry, cfg.Tables)
	p.lens = make([]int, cfg.Tables)
	n := 1 << cfg.IdxBits
	p.all = recycle.Make[entry](cfg.Tables * n)
	for i := range p.tables {
		p.tables[i] = p.all[i*n : (i+1)*n : (i+1)*n]
		// Geometric-ish spacing between MinHist and MaxHist.
		p.lens[i] = cfg.MinHist + (cfg.MaxHist-cfg.MinHist)*i*i/((cfg.Tables-1)*(cfg.Tables-1)+1)
		if i > 0 && p.lens[i] <= p.lens[i-1] {
			p.lens[i] = p.lens[i-1] + 1
		}
	}
	return p
}

// Release hands the base and tagged tables back to package recycle; the
// predictor must not be used afterwards.
func (p *Predictor) Release() {
	recycle.Free(p.base)
	recycle.Free(p.all)
	p.base, p.all, p.tables = nil, nil, nil
}

// Hist returns a pointer to the primary (demand-path) history context.
func (p *Predictor) Hist() *Hist { return &p.hist }

func fold(v uint64, bits int) uint32 {
	r := uint32(0)
	for v != 0 {
		r ^= uint32(v) & ((1 << uint(bits)) - 1)
		v >>= uint(bits)
	}
	return r
}

func (p *Predictor) index(h *Hist, pc uint64, i int) int32 {
	histBits := 2 * p.lens[i]
	hv := h.ghr
	if histBits < 64 {
		hv &= (1 << uint(histBits)) - 1
	}
	v := uint64(fold(hv, p.cfg.IdxBits)) ^ (pc >> 2) ^ (pc >> uint(3+i)) ^ (h.path & 0x3ff)
	return int32(v & uint64((1<<p.cfg.IdxBits)-1))
}

func (p *Predictor) tag(h *Hist, pc uint64, i int) uint16 {
	histBits := 2 * p.lens[i]
	hv := h.ghr
	if histBits < 64 {
		hv &= (1 << uint(histBits)) - 1
	}
	v := uint64(fold(hv, p.cfg.TagBits)) ^ (pc >> 2) ^ (pc >> uint(p.cfg.IdxBits+i))
	return uint16(v & uint64((1<<p.cfg.TagBits)-1))
}

// Lookup is the bookkeeping a prediction needs to be updated later.
type Lookup struct {
	// Target is the predicted target (0 if the predictor has never seen
	// this branch).
	Target uint64
	// Confident reports a saturated provider counter.
	Confident bool

	hitBank int // 1-based provider, 0 = base
	altBank int // 1-based alternate match, 0 = base
	usedAlt bool
	indices [16]int32
	tags    [16]uint16
	baseIdx int32
}

// Predict returns the target prediction for the indirect branch at pc.
// As in Seznec's ITTAGE, the longest matching table provides unless its
// confidence counter is weak, in which case the alternate (next longest
// match, or the base table) provides.
func (p *Predictor) Predict(h *Hist, pc uint64) Lookup {
	var l Lookup
	l.baseIdx = int32((pc >> 2) & uint64(len(p.base)-1))
	for i := 0; i < p.cfg.Tables; i++ {
		l.indices[i] = p.index(h, pc, i)
		l.tags[i] = p.tag(h, pc, i)
	}
	for i := p.cfg.Tables - 1; i >= 0; i-- {
		e := &p.tables[i][l.indices[i]]
		if e.valid && e.tag == l.tags[i] {
			if l.hitBank == 0 {
				l.hitBank = i + 1
			} else {
				l.altBank = i + 1
				break
			}
		}
	}
	if l.hitBank == 0 {
		l.Target = p.base[l.baseIdx]
		l.Confident = l.Target != 0
		return l
	}
	prov := &p.tables[l.hitBank-1][l.indices[l.hitBank-1]]
	if prov.ctr >= 1 {
		l.Target = prov.target
		l.Confident = prov.ctr >= 2
		return l
	}
	// Weak provider (fresh allocation or alias churn): trust the
	// alternate prediction.
	l.usedAlt = true
	if l.altBank != 0 {
		alt := &p.tables[l.altBank-1][l.indices[l.altBank-1]]
		l.Target = alt.target
		l.Confident = alt.ctr >= 2
	} else {
		l.Target = p.base[l.baseIdx]
		l.Confident = false
	}
	return l
}

// Update trains the predictor with the architectural target.
func (p *Predictor) Update(pc, target uint64, l *Lookup) {
	correct := l.Target == target
	if l.hitBank > 0 {
		e := &p.tables[l.hitBank-1][l.indices[l.hitBank-1]]
		if e.target == target {
			if e.ctr < 3 {
				e.ctr++
			}
			if e.u < 3 {
				e.u++
			}
		} else {
			if e.ctr > 0 {
				e.ctr--
			} else {
				e.target = target
				e.ctr = 1
			}
			if e.u > 0 {
				e.u--
			}
		}
		// When the provider was weak, also train whoever provided.
		if l.usedAlt && l.altBank > 0 {
			a := &p.tables[l.altBank-1][l.indices[l.altBank-1]]
			if a.target == target {
				if a.ctr < 3 {
					a.ctr++
				}
			} else if a.ctr > 0 {
				a.ctr--
			}
		} else if l.usedAlt {
			p.base[l.baseIdx] = target
		}
	} else {
		p.base[l.baseIdx] = target
	}
	if !correct && l.hitBank < p.cfg.Tables {
		p.allocate(target, l)
	}
	p.tick++
	if p.tick >= 1<<17 {
		p.tick = 0
		for i := range p.tables {
			for j := range p.tables[i] {
				p.tables[i][j].u >>= 1
			}
		}
	}
}

func (p *Predictor) allocate(target uint64, l *Lookup) {
	start := l.hitBank
	p.lfsr = p.lfsr*1103515245 + 12345
	if p.lfsr>>16&3 == 0 && start+1 < p.cfg.Tables {
		start++
	}
	for i := start; i < p.cfg.Tables; i++ {
		e := &p.tables[i][l.indices[i]]
		if !e.valid || e.u == 0 {
			*e = entry{valid: true, tag: l.tags[i], target: target, ctr: 1}
			return
		}
		e.u--
	}
}

// StorageBits returns the modeled hardware budget. Targets are accounted
// as 32-bit offsets, as hardware would store compressed targets.
func (p *Predictor) StorageBits() int {
	bits := len(p.base) * 32
	for range p.tables {
		bits += (1 << p.cfg.IdxBits) * (32 + p.cfg.TagBits + 2 + 2)
	}
	return bits
}

// StorageKB returns the budget in kilobytes.
func (p *Predictor) StorageKB() float64 { return float64(p.StorageBits()) / 8 / 1024 }
