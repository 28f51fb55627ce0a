// Package backend models the out-of-order execution engine of the
// baseline core (Table II): a 512-entry ROB, 6-wide dispatch, 10-wide
// issue and commit, 3 load + 2 store ports, with dependency tracking
// through a register ready-time scoreboard. Because the simulator never
// dispatches wrong-path µ-ops (the frontend stalls at a mispredicted
// branch), a "flush" reduces to resolving the branch and releasing the
// frontend — the refill cost UCP targets is then paid entirely in the
// frontend, which is exactly the effect under study.
//
// Known deviation: the scoreboard tracks registers, not producers.
// issue reads regReady[src], which only an issued producer writes, and
// Dispatch marks nothing pending. So a consumer whose producer is still
// waiting in the ROB sees the previous writer's ready time and can
// issue first. Tracking each source's producer per ROB entry lowered
// baseline IPC by 17–20% on srv207, srv203 and int03, left crypto01
// unchanged, and lowered UCP's speedup on those three traces from
// +11.8/+10.7/+5.1% to +8.5/+7.6/+3.8% (`ucpsim -compare`, 400K+2M;
// EXPERIMENTS.md "Methodology deltas"). Fixing it is a model change
// that moves every golden digest.
package backend

import (
	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/recycle"
)

// Config sizes the backend.
type Config struct {
	ROB           int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int
	LoadPorts     int
	StorePorts    int
	// SchedWindow bounds how deep past the oldest unissued µ-op the
	// scheduler looks each cycle (reservation-station reach).
	SchedWindow int
	// Latencies per class.
	ALULat, MulLat, FPLat, BranchLat uint64
}

// DefaultConfig mirrors Table II.
func DefaultConfig() Config {
	return Config{
		ROB: 512, DispatchWidth: 6, IssueWidth: 10, CommitWidth: 10,
		LoadPorts: 3, StorePorts: 2, SchedWindow: 160,
		ALULat: 1, MulLat: 3, FPLat: 4, BranchLat: 1,
	}
}

// Uop is one micro-operation handed to the backend at dispatch.
type Uop struct {
	PC      uint64
	Class   isa.Class
	Dst     uint8
	Src1    uint8
	Src2    uint8
	MemAddr uint64
	// Mispredict marks a branch whose resolution redirects the frontend.
	Mispredict bool
}

type robEntry struct {
	uop  Uop
	done uint64
}

// Flush reports a resolved misprediction.
type Flush struct {
	// Cycle is when the branch resolved (frontend may restart at
	// Cycle+1).
	Cycle uint64
	// PC is the branch address.
	PC uint64
}

// DataPrefetcher observes issued loads (the IP-stride L1D prefetcher
// of Table II attaches here).
type DataPrefetcher interface {
	// OnLoad fires when a load issues.
	OnLoad(pc, addr uint64, now uint64)
}

// Backend is the out-of-order engine.
type Backend struct {
	cfg Config
	mem *cache.Hierarchy
	// DataPrefetcher is optional.
	DataPrefetcher DataPrefetcher
	rob            []robEntry
	// issuedF holds the per-entry issued flags densely, separate from
	// the entries themselves: the scheduler's scan-advance and
	// skip-issued paths then read one byte per entry instead of pulling
	// each ~48-byte robEntry through the cache.
	issuedF          []bool
	head, tail, used int
	// unissued lists the ring indices of not-yet-issued entries in
	// program order. The scheduler iterates it instead of walking ROB
	// slots, so interleaved already-issued entries cost nothing; the
	// SchedWindow bound is still enforced in slot distance from the
	// oldest unissued entry, preserving the slot-scan semantics exactly.
	unissued []int
	// dirty forces a scheduler scan; nextWake is the earliest cycle a
	// blocked µ-op can become ready when the window is quiescent. They
	// make memory-stall phases O(1) per cycle instead of O(window).
	dirty    bool
	nextWake uint64

	regReady [isa.RegCount]uint64

	// Stats.
	Committed   uint64
	Issued      uint64
	LoadsIssued uint64
	StoreIssued uint64
}

// New constructs a backend over the given memory hierarchy.
func New(cfg Config, mem *cache.Hierarchy) *Backend {
	return &Backend{cfg: cfg, mem: mem,
		rob:      recycle.Make[robEntry](cfg.ROB),
		issuedF:  make([]bool, cfg.ROB),
		unissued: make([]int, 0, cfg.ROB)}
}

// CanDispatch reports whether n more µ-ops fit in the ROB.
func (b *Backend) CanDispatch(n int) bool { return b.used+n <= b.cfg.ROB }

// Dispatch inserts a µ-op into the ROB. Callers must respect
// CanDispatch and the configured dispatch width.
func (b *Backend) Dispatch(u Uop) {
	b.rob[b.tail] = robEntry{uop: u}
	b.issuedF[b.tail] = false
	b.unissued = append(b.unissued, b.tail)
	b.tail++
	if b.tail == len(b.rob) {
		b.tail = 0
	}
	b.used++
	b.dirty = true
}

// Release hands the ROB back to package recycle; the backend must not
// be used afterwards.
func (b *Backend) Release() {
	recycle.Free(b.rob)
	b.rob = nil
}

// DispatchWidth returns the per-cycle dispatch capacity.
func (b *Backend) DispatchWidth() int { return b.cfg.DispatchWidth }

// Cycle advances execution by one cycle: issues ready µ-ops oldest
// first, commits finished ones in order, and reports a resolved
// misprediction (flushed true) if one completed this cycle. The flush
// is returned by value: the cycle loop allocates nothing.
func (b *Backend) Cycle(now uint64) (committed int, flush Flush, flushed bool) {
	if b.dirty || now >= b.nextWake {
		flush, flushed = b.issue(now)
	}
	// Commit in order.
	for committed < b.cfg.CommitWidth && b.used > 0 {
		if !b.issuedF[b.head] || b.rob[b.head].done > now {
			break
		}
		b.head++
		if b.head == len(b.rob) {
			b.head = 0
		}
		b.used--
		committed++
		b.Committed++
	}
	if committed > 0 {
		b.dirty = true
	}
	return committed, flush, flushed
}

// issue runs one scheduler scan, returning the earliest resolved
// misprediction, if any.
func (b *Backend) issue(now uint64) (flush Flush, flushed bool) {
	// Iterate the unissued list (program order) instead of walking ROB
	// slots: already-issued entries between candidates cost nothing.
	// The candidate set is unchanged — the scheduler still only reaches
	// entries within SchedWindow ROB slots of the oldest unissued one,
	// and stops mid-window once the issue width is spent.
	list := b.unissued
	if len(list) == 0 {
		b.dirty = false
		b.nextWake = ^uint64(0)
		return Flush{}, false
	}
	rob := b.rob
	n := len(rob)
	issuedF := b.issuedF
	regReady := &b.regReady
	oldest := list[0]
	window := b.cfg.SchedWindow
	issueWidth := b.cfg.IssueWidth
	issued, loads, stores := 0, 0, 0
	portLimited := false
	wake := ^uint64(0)
	kept := list[:0]
	for li, cur := range list {
		if issued >= issueWidth {
			kept = append(kept, list[li:]...)
			break
		}
		dist := cur - oldest
		if dist < 0 {
			dist += n
		}
		if dist >= window {
			kept = append(kept, list[li:]...)
			break
		}
		e := &rob[cur]
		u := &e.uop
		if r1, r2 := regReady[u.Src1], regReady[u.Src2]; r1 > now || r2 > now {
			if r2 > r1 {
				r1 = r2
			}
			if r1 < wake {
				wake = r1
			}
			kept = append(kept, cur)
			continue
		}
		switch u.Class {
		case isa.Load:
			if loads >= b.cfg.LoadPorts {
				portLimited = true
				kept = append(kept, cur)
				continue
			}
			loads++
			e.done = b.mem.Load(u.MemAddr, now) + 1
			b.LoadsIssued++
			if b.DataPrefetcher != nil {
				b.DataPrefetcher.OnLoad(u.PC, u.MemAddr, now)
			}
		case isa.Store:
			if stores >= b.cfg.StorePorts {
				portLimited = true
				kept = append(kept, cur)
				continue
			}
			stores++
			b.mem.Store(u.MemAddr, now)
			e.done = now + 1
			b.StoreIssued++
		case isa.Mul:
			e.done = now + b.cfg.MulLat
		case isa.FP:
			e.done = now + b.cfg.FPLat
		default:
			if u.Class.IsBranch() {
				e.done = now + b.cfg.BranchLat
			} else {
				e.done = now + b.cfg.ALULat
			}
		}
		issuedF[cur] = true
		issued++
		b.Issued++
		if u.Dst != 0 {
			regReady[u.Dst] = e.done
		}
		if u.Class.IsBranch() && u.Mispredict {
			if !flushed || e.done < flush.Cycle {
				flush, flushed = Flush{Cycle: e.done, PC: u.PC}, true
			}
		}
	}
	b.unissued = kept
	// A scan that issued something (or hit a port limit) may unblock
	// more work next cycle; a quiescent scan sleeps until the earliest
	// source-ready time.
	b.dirty = issued > 0 || portLimited || issued == b.cfg.IssueWidth
	b.nextWake = wake
	return flush, flushed
}

// Occupancy returns the live ROB entries.
func (b *Backend) Occupancy() int { return b.used }

// Drained reports an empty ROB.
func (b *Backend) Drained() bool { return b.used == 0 }
