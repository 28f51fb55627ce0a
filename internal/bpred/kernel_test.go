package bpred

import (
	"fmt"
	"strings"
	"testing"

	"ucp/internal/ckpt"
	"ucp/internal/rng"
)

// kernelShapes are the predictor geometries the packed kernels are
// checked on: the three shipped predictors and the edges of what
// TageConfig.Validate accepts — 26-bit index folds, a 1-bit narrow tag
// fold (TagBase 2), 16 tables, tag widths capped at 15 bits, an odd
// table count (the last pair has one table) and a longest history
// length of exactly the ring's 1024 bits.
func kernelShapes() map[string]TageConfig {
	edge := func(tables, minHist, maxHist, idxBits, tagBase int) TageConfig {
		return TageConfig{BimodalBits: 10, Tables: tables, MinHist: minHist, MaxHist: maxHist,
			IdxBits: idxBits, TagBase: tagBase, CtrBits: 3}
	}
	return map[string]TageConfig{
		"64KB":             Config64KB().Tage,
		"8KB":              Config8KB().Tage,
		"128KB":            Config128KB().Tage,
		"IdxBits 26":       edge(12, 4, 640, 26, 8),
		"TagBase 2":        edge(12, 4, 640, 11, 2),
		"16 tables":        edge(16, 2, 1000, 9, 9),
		"capped tags":      edge(16, 3, 700, 6, 14),
		"odd tables":       edge(7, 5, 300, 10, 5),
		"one table":        edge(1, 37, 37, 7, 4),
		"1024-bit history": edge(14, 4, 1024, 12, 7),
	}
}

// shapeWidths returns cfg's history lengths, index widths and tag
// widths as NewTAGE derives them.
func shapeWidths(cfg TageConfig) (lens, idxBits, tagBits []int) {
	lens = geometricLens(cfg)
	for i := range lens {
		idxBits = append(idxBits, cfg.IdxBits)
		tagBits = append(tagBits, min(cfg.TagBase+i/2, 15))
	}
	return lens, idxBits, tagBits
}

// refFold is one folded register kept the plain way: a value of
// compLen bits updated one push at a time from the full history.
type refFold struct{ comp, compLen, origLen int }

func (f *refFold) push(hist []int) {
	nb, ob := hist[len(hist)-1], 0
	if len(hist) > f.origLen {
		ob = hist[len(hist)-1-f.origLen]
	}
	c := f.comp<<1 | nb
	c ^= ob << (f.origLen % f.compLen)
	c ^= c >> f.compLen
	f.comp = c & (1<<f.compLen - 1)
}

// refFolds returns a table's index, tag and narrow tag folds.
func refFolds(lens, idxBits, tagBits []int, i int) [3]refFold {
	return [3]refFold{{0, idxBits[i], lens[i]}, {0, tagBits[i], lens[i]}, {0, tagBits[i] - 1, lens[i]}}
}

// histFolds returns table i's three folded registers from h's lanes.
func histFolds(h *Hist, i int) [3]uint64 {
	s, f, j := &h.shape.pairs[i/2], &h.folds[i/2], i%2
	return [3]uint64{s.idx.lane(f.idx, j), s.tag1.lane(f.tag1, j), s.tag2.lane(f.tag2, j)}
}

// TestPackedHistoryMatchesReference pushes random directions into a
// Hist of every kernel shape and, after each push, compares every
// table's three folded registers, read from their lanes, with plain
// per-register folds over the full history. 3000 pushes wrap the
// 1024-bit ring, so the longest histories read their outgoing bits
// from reused slots. The lanes above each register must also stay
// clear: a guard bit left set would corrupt the lane beside it.
func TestPackedHistoryMatchesReference(t *testing.T) {
	for name, cfg := range kernelShapes() {
		t.Run(name, func(t *testing.T) {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("edge shape rejected: %v", err)
			}
			lens, idxBits, tagBits := shapeWidths(cfg)
			if name == "1024-bit history" && lens[len(lens)-1] != maxHistBits {
				t.Fatalf("longest history %d, want %d", lens[len(lens)-1], maxHistBits)
			}
			shape := newHistShape(lens, idxBits, tagBits)
			h := newHist(&shape)
			refs := make([][3]refFold, len(lens))
			for i := range refs {
				refs[i] = refFolds(lens, idxBits, tagBits, i)
			}
			r := rng.New(uint64(len(name)))
			var hist []int
			for n := 1; n <= 3000; n++ {
				taken := r.Bool(0.5)
				h.Push(uint64(n)*4, taken)
				bit := 0
				if taken {
					bit = 1
				}
				hist = append(hist, bit)
				for i := range refs {
					got := histFolds(h, i)
					for k := range refs[i] {
						refs[i][k].push(hist)
						if got[k] != uint64(refs[i][k].comp) {
							t.Fatalf("push %d: table %d fold %d = %#x, reference %#x", n, i, k, got[k], refs[i][k].comp)
						}
					}
				}
				for k := range shape.pairs {
					s, f := &shape.pairs[k], &h.folds[k]
					for _, w := range []struct {
						v uint64
						s *laneShape
					}{{f.idx, &s.idx}, {f.tag1, &s.tag1}, {f.tag2, &s.tag2}} {
						if live := w.s.mask | w.s.mask<<laneBits; w.v&^live != 0 {
							t.Fatalf("push %d: pair %d word %#x has bits outside its lanes %#x", n, k, w.v, live)
						}
					}
				}
			}
		})
	}
}

// TestBankSelectionMatchesDescendingLoop checks PredictInto's index,
// tag, hit bank and alt bank against a reference: indices and tags
// hashed from the plain per-register folds, and the banks found by the
// descending probe loop the hit bitmask replaced. Before each predict,
// every table's probed entry is set to match or not at random, so the
// hit patterns cover every bank pair.
func TestBankSelectionMatchesDescendingLoop(t *testing.T) {
	for _, cfg := range []TageConfig{Config64KB().Tage, Config8KB().Tage, Config128KB().Tage,
		{BimodalBits: 8, Tables: 16, MinHist: 2, MaxHist: 900, IdxBits: 6, TagBase: 2, CtrBits: 3},
		{BimodalBits: 8, Tables: 5, MinHist: 3, MaxHist: 90, IdxBits: 7, TagBase: 11, CtrBits: 3},
	} {
		t.Run(fmt.Sprintf("%d tables of %d-bit index", cfg.Tables, cfg.IdxBits), func(t *testing.T) {
			tg := NewTAGE(cfg)
			defer tg.Release()
			h := tg.NewHist()
			lens, idxBits, tagBits := shapeWidths(cfg)
			refs := make([][3]refFold, cfg.Tables)
			for i := range refs {
				refs[i] = refFolds(lens, idxBits, tagBits, i)
			}
			r := rng.New(uint64(cfg.Tables))
			var hist []int
			pairs := map[[2]int]bool{}
			var p Prediction
			for n := 0; n < 4000; n++ {
				pc := 0x400000 + r.Uint64n(1<<20)*4
				tg.PredictInto(&p, h, pc)
				for i := 0; i < cfg.Tables; i++ {
					f := refs[i]
					idx := (pc>>2 ^ pc>>(2+(i+3)%7) ^ uint64(f[0].comp) ^ h.path&(1<<min(lens[i], 16)-1)) & (1<<cfg.IdxBits - 1)
					tag := uint16((pc>>2 ^ uint64(f[1].comp) ^ uint64(f[2].comp)<<1) & (1<<tagBits[i] - 1))
					if p.indices[i] != int32(i<<cfg.IdxBits|int(idx)) || p.tags[i] != tag {
						t.Fatalf("predict %d: table %d entry %d tag %#x, reference %d tag %#x", n, i, p.indices[i], p.tags[i], i<<cfg.IdxBits|int(idx), tag)
					}
					e := &tg.all[p.indices[i]]
					if e.tag = p.tags[i]; r.Bool(0.5) {
						e.tag ^= 1
					}
				}
				tg.PredictInto(&p, h, pc)
				hit, alt := 0, 0
				for i := cfg.Tables - 1; i >= 0; i-- {
					if tg.all[p.indices[i]].tag == p.tags[i] {
						if hit == 0 {
							hit = i + 1
						} else {
							alt = i + 1
							break
						}
					}
				}
				if p.hitBank != hit || p.altBank != alt {
					t.Fatalf("predict %d: hit bank %d alt bank %d, descending loop %d and %d", n, p.hitBank, p.altBank, hit, alt)
				}
				pairs[[2]int{hit, alt}] = true
				taken := r.Bool(0.5)
				tg.Update(pc, taken, &p)
				h.Push(pc, taken)
				bit := 0
				if taken {
					bit = 1
				}
				hist = append(hist, bit)
				for i := range refs {
					for k := range refs[i] {
						refs[i][k].push(hist)
					}
				}
			}
			// Every pair of banks (hit above alt, either may be absent)
			// occurs for the small tables; the large ones see most.
			if all := cfg.Tables*(cfg.Tables+1)/2 + 1; cfg.Tables <= 5 && len(pairs) != all {
				t.Errorf("%d of %d bank pairs occurred", len(pairs), all)
			}
		})
	}
}

// TestHistStateRoundTrip saves a pushed Hist of an odd table count and
// restores it into a fresh one: every word is equal, the odd pair's
// absent lane stays clear. A saved fold value wider than its lane, which
// would spill into the lane beside it, fails the load.
func TestHistStateRoundTrip(t *testing.T) {
	cfg := kernelShapes()["odd tables"]
	lens, idxBits, tagBits := shapeWidths(cfg)
	shape := newHistShape(lens, idxBits, tagBits)
	h := newHist(&shape)
	r := rng.New(9)
	for n := 0; n < 2000; n++ {
		h.Push(uint64(n)*8, r.Bool(0.5))
	}
	w := ckpt.NewWriter(0)
	h.SaveState(w)
	rd, err := ckpt.Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	got := newHist(&shape)
	got.LoadState(rd)
	if rd.Err() != nil || *got != *h {
		t.Fatalf("err %v, restored %+v, saved %+v", rd.Err(), got.folds, h.folds)
	}

	w = ckpt.NewWriter(0)
	w.Section("hist")
	w.U64s(h.ring[:])
	w.Uvarint(uint64(h.pos))
	w.Uvarint(h.path)
	w.Uvarint(h.ghr)
	w.Uvarint(uint64(shape.tables))
	for i := 0; i < shape.tables; i++ {
		idx := uint64(0)
		if i == 4 {
			idx = 1 << cfg.IdxBits
		}
		w.Uvarint(idx)
		w.Uvarint(0)
		w.Uvarint(0)
	}
	if rd, err = ckpt.Open(w.Seal()); err != nil {
		t.Fatal(err)
	}
	newHist(&shape).LoadState(rd)
	if rd.Err() == nil || !strings.Contains(rd.Err().Error(), "table 4 folds 0x400") {
		t.Fatalf("a fold one bit too wide: err %v", rd.Err())
	}
}
