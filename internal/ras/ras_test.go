package ras

import (
	"testing"
	"testing/quick"

	"ucp/internal/ckpt"
)

func TestPushPopLIFO(t *testing.T) {
	s := New(8)
	for i := 1; i <= 5; i++ {
		s.Push(uint64(i * 0x100))
	}
	for i := 5; i >= 1; i-- {
		if got := s.Pop(); got != uint64(i*0x100) {
			t.Fatalf("Pop = %#x, want %#x", got, i*0x100)
		}
	}
	if s.Depth() != 0 {
		t.Fatalf("depth %d after draining", s.Depth())
	}
}

func TestUnderflowReturnsZero(t *testing.T) {
	s := New(4)
	if got := s.Pop(); got != 0 {
		t.Fatalf("empty Pop = %#x", got)
	}
	if got := s.Peek(); got != 0 {
		t.Fatalf("empty Peek = %#x", got)
	}
}

func TestOverflowWraps(t *testing.T) {
	s := New(4)
	for i := 1; i <= 6; i++ {
		s.Push(uint64(i))
	}
	if s.Depth() != 4 {
		t.Fatalf("depth %d, want 4", s.Depth())
	}
	// Youngest 4 survive: 6,5,4,3.
	for _, want := range []uint64{6, 5, 4, 3} {
		if got := s.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if got := s.Pop(); got != 0 {
		t.Fatalf("wrapped stack must underflow to 0, got %d", got)
	}
}

func TestPeekDoesNotPop(t *testing.T) {
	s := New(4)
	s.Push(42)
	if s.Peek() != 42 || s.Peek() != 42 || s.Depth() != 1 {
		t.Fatal("Peek must not modify the stack")
	}
}

func TestCopyFromTruncatesToYoungest(t *testing.T) {
	main := New(64)
	for i := 1; i <= 20; i++ {
		main.Push(uint64(i))
	}
	alt := New(16)
	alt.CopyFrom(main)
	if alt.Depth() != 16 {
		t.Fatalf("alt depth %d, want 16", alt.Depth())
	}
	for want := uint64(20); want >= 5; want-- {
		if got := alt.Pop(); got != want {
			t.Fatalf("alt Pop = %d, want %d", got, want)
		}
	}
	// The main stack is untouched.
	if main.Depth() != 20 || main.Peek() != 20 {
		t.Fatal("CopyFrom modified the source")
	}
}

func TestCopyFromSmallerSource(t *testing.T) {
	main := New(64)
	main.Push(7)
	main.Push(9)
	alt := New(16)
	alt.Push(1) // stale state must be replaced
	alt.CopyFrom(main)
	if alt.Depth() != 2 || alt.Pop() != 9 || alt.Pop() != 7 {
		t.Fatal("CopyFrom with small source failed")
	}
}

func TestCopyFromFullSameCapacity(t *testing.T) {
	a := New(8)
	for i := 1; i <= 8; i++ {
		a.Push(uint64(i))
	}
	b := New(8)
	b.CopyFrom(a)
	for want := uint64(8); want >= 1; want-- {
		if got := b.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestReset(t *testing.T) {
	s := New(4)
	s.Push(1)
	s.Reset()
	if s.Depth() != 0 || s.Pop() != 0 {
		t.Fatal("Reset did not empty the stack")
	}
}

func TestDepthNeverExceedsCapacity(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		s := New(16)
		for _, op := range ops {
			if op%3 == 0 {
				s.Pop()
			} else {
				s.Push(uint64(op))
			}
			if s.Depth() < 0 || s.Depth() > s.Capacity() {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFromMatchesPopSequence(t *testing.T) {
	// Property: after CopyFrom, popping alt yields the same sequence as
	// popping main (up to alt's capacity).
	if err := quick.Check(func(vals []uint16) bool {
		main := New(32)
		for _, v := range vals {
			main.Push(uint64(v) + 1)
		}
		ref := New(32)
		ref.CopyFrom(main)
		alt := New(8)
		alt.CopyFrom(main)
		for i := 0; i < alt.Depth(); i++ {
			if alt.Pop() != ref.Pop() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadStateRejectsPositionPastStack restores hand-built sections
// whose write position or depth lies outside the stack: each must fail
// on the reader rather than panic on the first Push.
func TestLoadStateRejectsPositionPastStack(t *testing.T) {
	for _, tc := range []struct{ top, depth uint64 }{{32, 0}, {0, 33}, {1 << 40, 1}} {
		w := ckpt.NewWriter()
		w.Section("ras")
		w.U64s(make([]uint64, 32))
		w.Uvarint(tc.top)
		w.Uvarint(tc.depth)
		r, err := ckpt.Open(w.Seal())
		if err != nil {
			t.Fatal(err)
		}
		s := New(32)
		s.LoadState(r)
		if r.Close() == nil {
			t.Errorf("top %d, depth %d: restored without error", tc.top, tc.depth)
		}
		s.Push(1) // the rejected values were not installed
	}
	// The last valid write position restores.
	full := New(32)
	for i := range 31 {
		full.Push(uint64(i))
	}
	w := ckpt.NewWriter()
	full.SaveState(w)
	r, _ := ckpt.Open(w.Seal())
	New(32).LoadState(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
