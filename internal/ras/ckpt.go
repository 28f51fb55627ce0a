package ras

import "ucp/internal/ckpt"

// Checkpoint hooks: calls and returns commit functionally during the
// sampled fast-forward, so the stack contents, write position, and live
// depth carry across a checkpoint.

// SaveState serializes all mutable stack state.
func (s *Stack) SaveState(w *ckpt.Writer) {
	w.Section("ras")
	w.U64s(s.entries)
	w.Uvarint(uint64(s.top))
	w.Uvarint(uint64(s.depth))
}

// LoadState restores state saved by SaveState into a stack of the same
// capacity. Errors surface on the reader.
func (s *Stack) LoadState(r *ckpt.Reader) {
	r.Section("ras")
	r.U64sInto(s.entries)
	top, depth := r.Uvarint(), r.Uvarint()
	if n := uint64(len(s.entries)); top >= n || depth > n {
		r.Failf("ras: top %d, depth %d in a %d-entry stack", top, depth, n)
		return
	}
	s.top, s.depth = int(top), int(depth)
}
