package bpred

import "ucp/internal/ckpt"

// Checkpoint hooks: the sampled-simulation fast-forward trains the
// direction predictor continuously (WarmCond / Update / PushHistory),
// so the entire mutable TAGE-SC-L state — tables, adaptive counters,
// allocation LFSR, and the demand history context — must serialize for
// a restored run to be byte-identical to an uninterrupted one.
// Construction-derived fields (shapes, masks, geometry) are rebuilt by
// the constructor and deliberately not serialized; slice lengths encode
// the configured geometry, so restoring into a differently-configured
// predictor fails the codec's length checks.

// SaveState serializes all mutable predictor state, including the
// primary history context.
func (t *TageSCL) SaveState(w *ckpt.Writer) {
	w.Section("tagescl")
	t.tage.saveState(w)
	t.loop.saveState(w)
	t.sc.saveState(w)
	t.hist.SaveState(w)
}

// LoadState restores state saved by SaveState into an identically
// configured predictor. Errors surface on the reader.
func (t *TageSCL) LoadState(r *ckpt.Reader) {
	r.Section("tagescl")
	t.tage.loadState(r)
	t.loop.loadState(r)
	t.sc.loadState(r)
	t.hist.LoadState(r)
}

func (t *TAGE) saveState(w *ckpt.Writer) {
	w.Section("tage")
	w.U8s(t.bimodal)
	for ti := range t.tagBits {
		tbl := t.table(ti)
		w.Uvarint(uint64(len(tbl)))
		for i := range tbl {
			w.Byte(tbl[i].ctr)
			w.Uvarint(uint64(tbl[i].tag))
			w.Byte(tbl[i].u)
		}
	}
	w.I8(t.useAltOn)
	w.Byte(t.bimHist)
	w.Uvarint(uint64(t.tick))
	w.Uvarint(uint64(t.lfsr))
}

func (t *TAGE) loadState(r *ckpt.Reader) {
	r.Section("tage")
	r.U8sInto(t.bimodal)
	for ti := range t.tagBits {
		tbl := t.table(ti)
		n := r.Uvarint()
		if r.Err() != nil {
			return
		}
		if n != uint64(len(tbl)) {
			r.Failf("tage table %d: %d entries, want %d", ti, n, len(tbl))
			return
		}
		for i := range tbl {
			tbl[i].ctr = r.Byte()
			tbl[i].tag = uint16(r.Uvarint())
			tbl[i].u = r.Byte()
		}
	}
	t.useAltOn = r.I8()
	t.bimHist = r.Byte()
	t.tick = int(r.Uvarint())
	t.lfsr = uint32(r.Uvarint())
}

func (l *LoopPredictor) saveState(w *ckpt.Writer) {
	w.Section("loop")
	w.Uvarint(uint64(len(l.entries)))
	for i := range l.entries {
		e := &l.entries[i]
		w.Uvarint(uint64(e.tag))
		w.Uvarint(uint64(e.pastIter))
		w.Uvarint(uint64(e.currIter))
		w.Byte(e.conf)
		w.Byte(e.age)
		w.Bool(e.dir)
		w.Bool(e.valid)
	}
	w.I8(l.withLoop)
}

func (l *LoopPredictor) loadState(r *ckpt.Reader) {
	r.Section("loop")
	n := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if n != uint64(len(l.entries)) {
		r.Failf("loop predictor: %d entries, want %d", n, len(l.entries))
		return
	}
	for i := range l.entries {
		e := &l.entries[i]
		e.tag = uint16(r.Uvarint())
		e.pastIter = uint16(r.Uvarint())
		e.currIter = uint16(r.Uvarint())
		e.conf = r.Byte()
		e.age = r.Byte()
		e.dir = r.Bool()
		e.valid = r.Bool()
	}
	l.withLoop = r.I8()
}

func (s *SC) saveState(w *ckpt.Writer) {
	w.Section("sc")
	w.I8s(s.bias)
	for i := range s.tables {
		w.I8s(s.tables[i])
	}
	w.Varint(int64(s.theta))
	w.I8(s.tc)
	w.Varint(int64(s.scale))
}

func (s *SC) loadState(r *ckpt.Reader) {
	r.Section("sc")
	r.I8sInto(s.bias)
	for i := range s.tables {
		r.I8sInto(s.tables[i])
	}
	s.theta = int32(r.Varint())
	s.tc = r.I8()
	s.scale = int32(r.Varint())
}

// SaveState serializes a history context: the direction ring, path and
// GHR mirrors, and each table's three folded-register values (the rest
// of a folded register is construction-derived).
func (h *Hist) SaveState(w *ckpt.Writer) {
	w.Section("hist")
	w.U64s(h.ring[:])
	w.Uvarint(uint64(h.pos))
	w.Uvarint(h.path)
	w.Uvarint(h.ghr)
	w.Uvarint(uint64(h.shape.tables))
	for i := 0; i < h.shape.tables; i++ {
		s, f, j := &h.shape.pairs[i/2], &h.folds[i/2], i%2
		w.Uvarint(uint64(s.idx.lane(f.idx, j)))
		w.Uvarint(uint64(s.tag1.lane(f.tag1, j)))
		w.Uvarint(uint64(s.tag2.lane(f.tag2, j)))
	}
}

// LoadState restores a history context saved by SaveState.
func (h *Hist) LoadState(r *ckpt.Reader) {
	r.Section("hist")
	r.U64sInto(h.ring[:])
	h.pos = uint(r.Uvarint())
	h.path = r.Uvarint()
	h.ghr = r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if n != uint64(h.shape.tables) {
		r.Failf("hist: %d fold sets, want %d", n, h.shape.tables)
		return
	}
	// A fold value wider than its lane would spill into its neighbor.
	h.folds = [maxTables / 2]pairFolds{}
	for i := 0; i < h.shape.tables; i++ {
		s, f, sh := &h.shape.pairs[i/2], &h.folds[i/2], uint(i%2)*laneBits
		idx, tag1, tag2 := r.Uvarint(), r.Uvarint(), r.Uvarint()
		if idx > s.idx.mask || tag1 > s.tag1.mask || tag2 > s.tag2.mask {
			r.Failf("hist: table %d folds %#x, %#x, %#x wider than %d, %d, %d bits",
				i, idx, tag1, tag2, s.idx.width, s.tag1.width, s.tag2.width)
			return
		}
		f.idx |= idx << sh
		f.tag1 |= tag1 << sh
		f.tag2 |= tag2 << sh
	}
}
