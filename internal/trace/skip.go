package trace

import "ucp/internal/isa"

// Skipper is an optional Source fast path for fast-forwarding: Skip(n)
// advances the stream past up to n instructions without materializing
// them. Implementations must leave the stream exactly where n calls to
// Next would have (same position, same generator state), returning the
// number actually skipped — short only at end of stream. The sampled
// simulation controller uses it to jump between detailed windows.
type Skipper interface {
	Source
	// Skip advances past up to n instructions, returning how many were
	// skipped.
	Skip(n int) int
}

// SkipN fast-forwards src by up to n instructions, using the Skip fast
// path when src provides one and draining Next otherwise. It returns
// the number of instructions actually skipped.
func SkipN(src Source, n int) int {
	if s, ok := src.(Skipper); ok {
		return s.Skip(n)
	}
	for i := 0; i < n; i++ {
		if _, ok := src.Next(); !ok {
			return i
		}
	}
	return n
}

// Skip implements Skipper in O(1): the backing slice is random access.
func (s *SliceSource) Skip(n int) int {
	rem := len(s.insts) - s.pos
	if n > rem {
		n = rem
	}
	if n < 0 {
		n = 0
	}
	s.pos += n
	return n
}

// SkipWarm implements WarmSkipper over the backing slice without
// advancing through the Source interface.
func (s *SliceSource) SkipWarm(n int, w Warmer) int {
	bw, hasBW := w.(BranchWarmer)
	n = s.Skip(n)
	lastLine, lineValid := uint64(0), false
	for i := s.pos - n; i < s.pos; i++ {
		in := &s.insts[i]
		if la := in.LineAddr(); !lineValid || la != lastLine {
			lastLine, lineValid = la, true
			w.WarmFetch(la)
		}
		switch in.Class {
		case isa.Load, isa.Store:
			w.WarmMem(in.MemAddr)
		case isa.CondBranch:
			if hasBW {
				bw.WarmCond(in.PC, in.Taken)
			}
		}
	}
	return n
}

// Skip implements Skipper: it truncates the request to the remaining
// budget and delegates to the wrapped source (via its own fast path
// when it has one).
func (l *Limit) Skip(n int) int {
	if n < 0 {
		n = 0
	}
	if rem := l.n - l.seen; n > rem {
		n = rem
	}
	skipped := SkipN(l.src, n)
	l.seen += skipped
	return skipped
}

// SkipWarm implements WarmSkipper with the same budget truncation as
// Skip.
func (l *Limit) SkipWarm(n int, w Warmer) int {
	if n < 0 {
		n = 0
	}
	if rem := l.n - l.seen; n > rem {
		n = rem
	}
	skipped := SkipWarmN(l.src, n, w)
	l.seen += skipped
	return skipped
}

// Warmer receives the cache-state-carrying side effects of instructions
// passed over by a warming skip: the fetch-line sequence and every
// load/store effective address. The base interface carries no
// control-flow information — the warming skip keeps cache and TLB
// residency current, and target-carrying structures (BTB, ITTAGE, µ-op
// cache) retrain during the functional and detailed warm segments that
// follow a skip. A warmer that additionally implements BranchWarmer
// also receives conditional branch outcomes.
type Warmer interface {
	// WarmFetch observes one fetch-line crossing: lineAddr is the
	// 64-byte-aligned line address the instruction stream moved onto.
	WarmFetch(lineAddr uint64)
	// WarmMem observes one load or store effective address.
	WarmMem(addr uint64)
}

// BranchWarmer is an optional Warmer extension: a warmer that also
// implements it receives every conditional branch outcome crossed by
// the skip. Direction-predictor accuracy converges over tens of
// millions of instructions, far slower than cache residency, so a
// sampled run that stops training during skips measures a predictor
// biased early; the walker computes every outcome anyway to stay
// control-flow consistent, making continuous training nearly free.
type BranchWarmer interface {
	// WarmCond observes one conditional branch outcome.
	WarmCond(pc uint64, taken bool)
}

// WarmSkipper is a Source that can skip while reporting the skipped
// instructions' memory footprint to a Warmer, without materializing
// isa.Inst values. This is the sampled simulator's light fast-forward
// tier: far cheaper than the functional-commit path, while keeping the
// large, slow-to-warm structures (caches, TLBs, direction predictor)
// hot across the gap.
type WarmSkipper interface {
	Source
	// SkipWarm advances past up to n instructions, reporting fetch-line
	// crossings and memory addresses to w (which must be non-nil), and
	// returns how many instructions were skipped.
	SkipWarm(n int, w Warmer) int
}

// SkipWarmN fast-forwards src by up to n instructions, reporting the
// skipped footprint to w (non-nil). It uses the native SkipWarm fast
// path when the source provides one and otherwise materializes
// instructions via Next. It returns the number actually skipped, short
// only at end of stream.
func SkipWarmN(src Source, n int, w Warmer) int {
	if s, ok := src.(WarmSkipper); ok {
		return s.SkipWarm(n, w)
	}
	bw, hasBW := w.(BranchWarmer)
	lastLine, lineValid := uint64(0), false
	for i := 0; i < n; i++ {
		in, ok := src.Next()
		if !ok {
			return i
		}
		if la := in.LineAddr(); !lineValid || la != lastLine {
			lastLine, lineValid = la, true
			w.WarmFetch(la)
		}
		switch in.Class {
		case isa.Load, isa.Store:
			w.WarmMem(in.MemAddr)
		case isa.CondBranch:
			if hasBW {
				bw.WarmCond(in.PC, in.Taken)
			}
		}
	}
	return n
}

// Skip implements Skipper. A Walker's stream state (program counter,
// call stack, global history, per-site branch and memory state, and the
// behavior RNG) advances exactly as it would under Next — the state
// maintenance is inherent to control-flow consistency — but the
// architectural isa.Inst values are never materialized or delivered.
// The stream is endless, so Skip always skips the full n.
func (w *Walker) Skip(n int) int { return w.SkipWarm(n, nil) }

// SkipWarm implements WarmSkipper natively: the same state machine as
// Skip, additionally reporting fetch-line crossings and memory
// effective addresses to wm. A nil wm is tolerated here (Skip delegates
// with one) and skips the reporting entirely.
func (w *Walker) SkipWarm(n int, wm Warmer) int {
	var bw BranchWarmer
	if wm != nil {
		bw, _ = wm.(BranchWarmer)
	}
	lastLine, lineValid := uint64(0), false
	for i := 0; i < n; i++ {
		si := &w.prog.code[(w.pc-CodeBase)/isa.InstBytes]
		if wm != nil {
			if la := w.pc &^ uint64(isa.LineBytes-1); !lineValid || la != lastLine {
				lastLine, lineValid = la, true
				wm.WarmFetch(la)
			}
		}
		next := w.pc + isa.InstBytes
		switch si.Class {
		case isa.CondBranch:
			taken := w.evalCond(&w.prog.behaviors[si.b], &w.st[si.b])
			w.ghist = w.ghist<<1 | b2u(taken)
			if bw != nil {
				bw.WarmCond(w.pc, taken)
			}
			if taken {
				next = si.targetPC()
			}
		case isa.DirectJump:
			next = si.targetPC()
		case isa.Call:
			w.stack = append(w.stack, next)
			next = si.targetPC()
		case isa.IndirectJump, isa.IndirectCall:
			b := &w.prog.behaviors[si.b]
			if si.Class == isa.IndirectCall {
				w.stack = append(w.stack, next)
			}
			next = w.evalIndirect(b)
		case isa.Return:
			if ln := len(w.stack); ln > 0 {
				next = w.stack[ln-1]
				w.stack = w.stack[:ln-1]
			} else {
				next = w.prog.Entry
			}
		case isa.Load, isa.Store:
			addr := w.memAddr(si)
			if wm != nil {
				wm.WarmMem(addr)
			}
		}
		w.pc = next
	}
	return n
}

// Scalar hides a source's batch (and any other) fast paths behind a
// plain scalar Source, while still exposing Skip. The sampled
// simulation mode wraps its trace in a Scalar so the frontend's batched
// read-ahead cannot advance the stream past the architectural commit
// point — the fast-forward controller and the detailed engine must
// observe one shared stream position.
type Scalar struct {
	src Source
}

// NewScalar wraps src, hiding every optional fast path except Skip.
func NewScalar(src Source) *Scalar { return &Scalar{src: src} }

// Next implements Source.
func (s *Scalar) Next() (isa.Inst, bool) { return s.src.Next() }

// Reset implements Source.
func (s *Scalar) Reset() { s.src.Reset() }

// Skip implements Skipper by delegating to the wrapped source's fast
// path when it has one.
func (s *Scalar) Skip(n int) int { return SkipN(s.src, n) }

// SkipWarm implements WarmSkipper by delegating to the wrapped source's
// fast path when it has one. Skip fast paths stay exposed — they
// advance the shared position from the controller's side, unlike the
// batch read-ahead this wrapper exists to hide.
func (s *Scalar) SkipWarm(n int, w Warmer) int { return SkipWarmN(s.src, n, w) }
