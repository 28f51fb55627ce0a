// Package trace defines the dynamic instruction trace model that drives
// the simulator, plus a synthetic workload generator that stands in for
// the proprietary CVP-1 Qualcomm datacenter traces used by the paper
// (see DESIGN.md, "Substitutions").
//
// A trace is a stream of isa.Inst values forming a consistent dynamic
// control-flow path: instruction i+1 always starts at instruction i's
// architectural next PC.
package trace

import (
	"fmt"

	"ucp/internal/isa"
)

// Source produces a stream of dynamic instructions. Implementations are
// not safe for concurrent use.
type Source interface {
	// Next returns the next instruction, or ok=false at end of stream.
	Next() (in isa.Inst, ok bool)
	// Reset rewinds the source to the beginning of the stream.
	Reset()
}

// BatchSource is an optional Source fast path: consumers that would
// call Next in a tight loop may pull many instructions per interface
// dispatch instead. Implementations must yield exactly the sequence
// Next would — NextBatch followed by Next (or vice versa) observes one
// stream with no gaps, duplicates, or reordering.
type BatchSource interface {
	Source
	// NextBatch fills dst from the front and returns the number of
	// instructions written. It returns 0 only when the stream is
	// exhausted (or dst is empty); short counts are otherwise allowed.
	NextBatch(dst []isa.Inst) int
}

// NextBatch implements BatchSource by copying from the backing slice.
func (s *SliceSource) NextBatch(dst []isa.Inst) int {
	n := copy(dst, s.insts[s.pos:])
	s.pos += n
	return n
}

// NextBatch implements BatchSource: it truncates dst to the remaining
// budget and delegates to the wrapped source's batch path when it has
// one, falling back to a scalar drain otherwise.
func (l *Limit) NextBatch(dst []isa.Inst) int {
	if l.seen >= l.n {
		return 0
	}
	if rem := l.n - l.seen; len(dst) > rem {
		dst = dst[:rem]
	}
	n := 0
	if bs, ok := l.src.(BatchSource); ok {
		n = bs.NextBatch(dst)
	} else {
		for n < len(dst) {
			in, ok := l.src.Next()
			if !ok {
				break
			}
			dst[n] = in
			n++
		}
	}
	l.seen += n
	return n
}

// SliceSource serves instructions from an in-memory slice.
type SliceSource struct {
	insts []isa.Inst
	pos   int
}

// NewSliceSource returns a Source over the given instructions.
func NewSliceSource(insts []isa.Inst) *SliceSource {
	return &SliceSource{insts: insts}
}

// Next implements Source.
func (s *SliceSource) Next() (isa.Inst, bool) {
	if s.pos >= len(s.insts) {
		return isa.Inst{}, false
	}
	in := s.insts[s.pos]
	s.pos++
	return in, true
}

// Reset implements Source.
func (s *SliceSource) Reset() { s.pos = 0 }

// Limit wraps a source, truncating it after n instructions.
type Limit struct {
	src  Source
	n    int
	seen int
}

// NewLimit returns a Source that yields at most n instructions from src.
func NewLimit(src Source, n int) *Limit { return &Limit{src: src, n: n} }

// Next implements Source.
func (l *Limit) Next() (isa.Inst, bool) {
	if l.seen >= l.n {
		return isa.Inst{}, false
	}
	in, ok := l.src.Next()
	if ok {
		l.seen++
	}
	return in, ok
}

// Reset implements Source.
func (l *Limit) Reset() {
	l.src.Reset()
	l.seen = 0
}

// Collect drains up to n instructions from src into a slice.
func Collect(src Source, n int) []isa.Inst {
	out := make([]isa.Inst, 0, n)
	for len(out) < n {
		in, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}

// Validate checks dynamic control-flow consistency: each instruction must
// begin at the previous instruction's architectural next PC, PCs must be
// 4-byte aligned, and taken branches must carry a target. It returns the
// index of the first violation.
func Validate(insts []isa.Inst) error {
	for i := range insts {
		in := &insts[i]
		if in.PC%isa.InstBytes != 0 {
			return fmt.Errorf("inst %d: misaligned PC %#x", i, in.PC)
		}
		if in.Taken && !in.Class.IsBranch() {
			return fmt.Errorf("inst %d: non-branch marked taken", i)
		}
		if in.Class.IsUncondTaken() && !in.Taken {
			return fmt.Errorf("inst %d: unconditional branch not taken", i)
		}
		if i > 0 {
			prev := &insts[i-1]
			if want := prev.NextPC(); in.PC != want {
				return fmt.Errorf("inst %d: PC %#x, want %#x (after %v at %#x taken=%v)",
					i, in.PC, want, prev.Class, prev.PC, prev.Taken)
			}
		}
	}
	return nil
}
