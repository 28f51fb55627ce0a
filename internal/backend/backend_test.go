package backend

import (
	"testing"
	"testing/quick"

	"ucp/internal/cache"
	"ucp/internal/isa"
)

func newBE() *Backend {
	return New(DefaultConfig(), cache.NewHierarchy(cache.DefaultHierarchyConfig()))
}

// drain advances until n µ-ops committed or the cycle bound trips.
func drain(t *testing.T, b *Backend, n int, bound uint64) uint64 {
	t.Helper()
	var now uint64
	total := 0
	for uint64(total) < uint64(n) {
		c, _, _ := b.Cycle(now)
		total += c
		now++
		if now > bound {
			t.Fatalf("backend did not commit %d µ-ops within %d cycles (%d done)", n, bound, total)
		}
	}
	return now
}

func TestSingleALUCommit(t *testing.T) {
	b := newBE()
	b.Dispatch(Uop{PC: 0x1000, Class: isa.ALU, Dst: 1})
	cycles := drain(t, b, 1, 10)
	if cycles > 3 {
		t.Fatalf("single ALU took %d cycles", cycles)
	}
	if !b.Drained() {
		t.Fatal("ROB not drained")
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	// r1 <- r1 + ... chain of 20: must take ≥20 cycles despite 10-wide
	// issue.
	b := newBE()
	for i := 0; i < 20; i++ {
		b.Dispatch(Uop{PC: uint64(0x1000 + i*4), Class: isa.ALU, Dst: 1, Src1: 1})
	}
	cycles := drain(t, b, 20, 100)
	if cycles < 20 {
		t.Fatalf("20-deep dependency chain finished in %d cycles", cycles)
	}
}

func TestIndependentOpsParallel(t *testing.T) {
	// 20 independent ALU ops, 10-wide: ~2-4 cycles.
	b := newBE()
	for i := 0; i < 20; i++ {
		b.Dispatch(Uop{PC: uint64(0x1000 + i*4), Class: isa.ALU, Dst: uint8(1 + i%40)})
	}
	cycles := drain(t, b, 20, 100)
	if cycles > 8 {
		t.Fatalf("independent ops took %d cycles", cycles)
	}
}

func TestLoadPortLimit(t *testing.T) {
	// 9 independent loads at 3 ports: at least 3 issue cycles.
	b := newBE()
	for i := 0; i < 9; i++ {
		b.Dispatch(Uop{PC: 0x1000, Class: isa.Load, Dst: uint8(i + 1), MemAddr: uint64(1<<32 + i*8)})
	}
	if _, _, _ = b.Cycle(0); b.LoadsIssued > 3 {
		t.Fatalf("issued %d loads in one cycle (3 ports)", b.LoadsIssued)
	}
	b.Cycle(1)
	b.Cycle(2)
	if b.LoadsIssued != 9 {
		t.Fatalf("after 3 cycles issued %d loads, want 9", b.LoadsIssued)
	}
}

func TestLoadLatencyPropagates(t *testing.T) {
	// A dependent ALU must wait for the load's memory latency.
	b := newBE()
	b.Dispatch(Uop{PC: 0x1000, Class: isa.Load, Dst: 5, MemAddr: 1 << 32}) // cold: DRAM
	b.Dispatch(Uop{PC: 0x1004, Class: isa.ALU, Dst: 6, Src1: 5})
	cycles := drain(t, b, 2, 2000)
	if cycles < 100 {
		t.Fatalf("dependent pair finished in %d cycles despite a cold load", cycles)
	}
}

func TestCommitInOrder(t *testing.T) {
	// A slow head op blocks commit of already-finished younger ops.
	b := newBE()
	b.Dispatch(Uop{PC: 0x1000, Class: isa.Load, Dst: 1, MemAddr: 1 << 33})
	for i := 0; i < 5; i++ {
		b.Dispatch(Uop{PC: uint64(0x2000 + i*4), Class: isa.ALU, Dst: uint8(i + 2)})
	}
	committed := 0
	for now := uint64(0); now < 20; now++ {
		c, _, _ := b.Cycle(now)
		committed += c
	}
	if committed != 0 {
		t.Fatalf("%d µ-ops committed past an unfinished ROB head", committed)
	}
}

func TestCommitWidth(t *testing.T) {
	b := newBE()
	for i := 0; i < 30; i++ {
		b.Dispatch(Uop{PC: uint64(i * 4), Class: isa.ALU})
	}
	// Let everything execute.
	for now := uint64(0); now < 5; now++ {
		b.Cycle(now)
	}
	c, _, _ := b.Cycle(100)
	if c > 10 {
		t.Fatalf("committed %d in one cycle (10-wide)", c)
	}
}

func TestMispredictFlushReported(t *testing.T) {
	b := newBE()
	b.Dispatch(Uop{PC: 0x1000, Class: isa.CondBranch, Mispredict: true})
	_, flush, flushed := b.Cycle(5)
	if !flushed {
		t.Fatal("no flush for mispredicted branch")
	}
	if flush.PC != 0x1000 || flush.Cycle != 5+DefaultConfig().BranchLat {
		t.Fatalf("flush %+v", flush)
	}
}

func TestNoFlushForCorrectBranch(t *testing.T) {
	b := newBE()
	b.Dispatch(Uop{PC: 0x1000, Class: isa.CondBranch})
	_, _, flushed := b.Cycle(0)
	if flushed {
		t.Fatal("flush for correctly-predicted branch")
	}
}

// TestMispredictCycleAllocatesNothing pins the cycle loop's zero
// allocations on its one path that used to allocate: a cycle that
// resolves a misprediction returns the flush by value.
func TestMispredictCycleAllocatesNothing(t *testing.T) {
	b := newBE()
	now := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		b.Dispatch(Uop{PC: 0x1000, Class: isa.CondBranch, Mispredict: true})
		if _, _, flushed := b.Cycle(now); !flushed {
			t.Fatal("no flush for mispredicted branch")
		}
		now++
		b.Cycle(now) // commit it, so the ROB never fills
		now++
	})
	if allocs != 0 {
		t.Fatalf("a mispredicting Cycle allocates %.1f times, want 0", allocs)
	}
}

func TestCanDispatchROBLimit(t *testing.T) {
	b := newBE()
	for i := 0; i < DefaultConfig().ROB; i++ {
		if !b.CanDispatch(1) {
			t.Fatalf("ROB refused entry %d", i)
		}
		b.Dispatch(Uop{Class: isa.ALU, Dst: 1, Src1: 1})
	}
	if b.CanDispatch(1) {
		t.Fatal("ROB overcommitted")
	}
	if b.Occupancy() != DefaultConfig().ROB {
		t.Fatalf("occupancy %d", b.Occupancy())
	}
}

func TestRegisterZeroNeverBlocks(t *testing.T) {
	// Register 0 is "no register": writes to it must not create
	// dependencies.
	b := newBE()
	b.Dispatch(Uop{PC: 0x1000, Class: isa.Load, Dst: 1, MemAddr: 1 << 34}) // slow producer of r1
	b.Dispatch(Uop{PC: 0x1004, Class: isa.ALU, Dst: 0, Src1: 0, Src2: 0})
	b.Cycle(0)
	c2, _, _ := b.Cycle(1)
	_ = c2
	// The ALU op must have issued by cycle 1 even though the load is
	// outstanding (no false dependency through reg 0).
	if b.Issued < 2 {
		t.Fatalf("issued %d, ALU blocked on register 0", b.Issued)
	}
}

func TestEverythingDispatchedCommits(t *testing.T) {
	// Property: any random program drains completely — no µ-op is ever
	// stranded by the scheduler's wake-up optimization.
	if err := quickCheck(func(seed uint64, n uint8) bool {
		b := newBE()
		x := seed
		dispatched := 0
		for i := 0; i < int(n)%200+20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			u := Uop{PC: uint64(0x1000 + i*4)}
			switch x >> 62 {
			case 0:
				u.Class = isa.Load
				u.MemAddr = 1<<32 + x%(1<<20)
				u.Dst = uint8(1 + x>>8%40)
			case 1:
				u.Class = isa.Store
				u.MemAddr = 1<<32 + x%(1<<20)
				u.Src1 = uint8(1 + x>>8%40)
			case 2:
				u.Class = isa.Mul
				u.Dst = uint8(1 + x>>8%40)
				u.Src1 = uint8(1 + x>>16%40)
			default:
				u.Class = isa.ALU
				u.Dst = uint8(1 + x>>8%40)
				u.Src1 = uint8(1 + x>>16%40)
				u.Src2 = uint8(1 + x>>24%40)
			}
			if !b.CanDispatch(1) {
				break
			}
			b.Dispatch(u)
			dispatched++
		}
		committed := 0
		for now := uint64(0); now < 100_000 && committed < dispatched; now++ {
			c, _, _ := b.Cycle(now)
			committed += c
		}
		return committed == dispatched && b.Drained()
	}); err != nil {
		t.Fatal(err)
	}
}

// quickCheck adapts testing/quick with a bounded count.
func quickCheck(f func(seed uint64, n uint8) bool) error {
	return quick.Check(f, &quick.Config{MaxCount: 150})
}
