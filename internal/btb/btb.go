// Package btb implements the banked instruction Branch Target Buffer of
// the baseline frontend (Table II: 64K entries, 16 banks, LRU). UCP
// doubles the bank count to 32 so the demand and alternate paths can
// look up targets concurrently, arbitrating conflicts with a 3-bit
// starvation counter (§IV-C). The bank-conflict policy itself lives with
// the consumer; this package exposes the geometry (BankOf) and a plain
// lookup/insert interface.
package btb

import (
	"fmt"
	"slices"

	"ucp/internal/isa"
	"ucp/internal/lru"
	"ucp/internal/recycle"
)

// BranchKind compresses the branch classes a BTB entry distinguishes.
type BranchKind uint8

const (
	// KindCond is a conditional direct branch.
	KindCond BranchKind = iota
	// KindDirect is an unconditional direct branch or call.
	KindDirect
	// KindIndirect is an indirect jump or call (target from ITTAGE).
	KindIndirect
	// KindReturn is a return (target from the RAS).
	KindReturn
)

// KindOf maps an instruction class to its BTB kind.
func KindOf(c isa.Class) BranchKind {
	switch c {
	case isa.CondBranch:
		return KindCond
	case isa.DirectJump, isa.Call:
		return KindDirect
	case isa.Return:
		return KindReturn
	default:
		return KindIndirect
	}
}

// Config sizes a BTB.
//
//ucplint:config
type Config struct {
	Entries int // total entries (power of two)
	Ways    int
	Banks   int // power of two
}

// Validate rejects BTB geometries the indexing cannot address: setOf
// and BankOf mask with sets-1 and Banks-1, so both must be powers of
// two.
func (c Config) Validate() error {
	if c.Entries <= 0 || !isPow2(c.Entries) {
		return fmt.Errorf("btb: Entries must be a positive power of two, got %d", c.Entries)
	}
	if c.Ways <= 0 || !isPow2(c.Ways) {
		return fmt.Errorf("btb: Ways must be a positive power of two, got %d", c.Ways)
	}
	if c.Ways > c.Entries {
		return fmt.Errorf("btb: Ways %d exceeds Entries %d", c.Ways, c.Entries)
	}
	if c.Banks <= 0 || !isPow2(c.Banks) {
		return fmt.Errorf("btb: Banks must be a positive power of two, got %d", c.Banks)
	}
	// A tag is a PC's bits above the set index (tagShift).
	if tagBits := isa.AddrBits - int(2+log2(c.Entries/c.Ways)); tagBits > tagWidth {
		return fmt.Errorf("btb: a %d-bit PC over a set count of %d leaves a %d-bit tag, wider than the %d bits beside the valid bit; use at least %d sets",
			isa.AddrBits, c.Entries/c.Ways, tagBits, tagWidth, 1<<(isa.AddrBits-2-tagWidth))
	}
	return nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// DefaultConfig is the paper's baseline: 64K entries, 16 banks.
func DefaultConfig() Config { return Config{Entries: 64 * 1024, Ways: 8, Banks: 16} }

// UCPConfig doubles the banks for dual-path lookups (§IV-C).
func UCPConfig() Config { return Config{Entries: 64 * 1024, Ways: 8, Banks: 32} }

// entry is a way's payload, 8 bytes: the branch target in the low
// kindShift bits and its kind in the two above. Every target lies below
// 1<<isa.AddrBits, far under kindShift, so the two never overlap.
type entry uint64

// kindShift is the bit position of an entry's kind.
const kindShift = 62

// pack makes the entry of a branch to target of the given kind. A
// target outside isa.AddrBits, which the trace sources reject, panics
// rather than corrupt the kind.
func pack(target uint64, kind BranchKind) entry {
	if target>>isa.AddrBits != 0 {
		panic("btb: target outside isa.AddrBits")
	}
	return entry(target) | entry(kind)<<kindShift
}

func (e entry) target() uint64   { return uint64(e) & (1<<kindShift - 1) }
func (e entry) kind() BranchKind { return BranchKind(e >> kindShift) }

// BTB is a set-associative, banked branch target buffer.
type BTB struct {
	cfg      Config
	sets     int
	tagShift uint // 2 + log2(sets), precomputed off the lookup path
	// pcLimit is the first PC key rejects: the first past isa.AddrBits
	// or the first whose tag does not fit under validBit, whichever is
	// lower.
	pcLimit uint64
	// tags packs each way's valid bit and tag as validBit|tag (zero =
	// invalid), separate from the payload entries: a whole 8-way set's
	// tag match then reads half a cache line, and Probe — which runs
	// every alternate-path walk step and usually misses — never touches
	// the payload array at all. Sets are in recency order (package
	// lru), payloads moving with their tags.
	tags  []uint32 // sets × ways
	data  []entry  // sets × ways
	stats Stats
}

// validBit marks a live way in the packed tag array; a tag has the
// tagWidth bits below it.
const (
	tagWidth = 31
	validBit = uint32(1) << tagWidth
)

// Stats counts BTB traffic.
type Stats struct {
	Lookups, Hits, Inserts, Evictions uint64
}

// New constructs a BTB.
func New(cfg Config) *BTB {
	sets := cfg.Entries / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	tagShift := 2 + log2(sets)
	return &BTB{cfg: cfg, sets: sets, tagShift: tagShift,
		pcLimit: min(1<<isa.AddrBits, uint64(validBit)<<tagShift),
		tags:    recycle.Make[uint32](sets * cfg.Ways),
		data:    recycle.Make[entry](sets * cfg.Ways)}
}

// Release hands the arrays back to package recycle; the BTB must not
// be used afterwards.
func (b *BTB) Release() {
	recycle.Free(b.tags)
	recycle.Free(b.data)
	b.tags, b.data = nil, nil
}

func (b *BTB) setOf(pc uint64) int {
	return int((pc >> 2) & uint64(b.sets-1))
}

// key returns pc's tag word, validBit|tag. A PC at or past pcLimit is
// outside isa.AddrBits, which the trace sources reject, or has a tag
// the geometry cannot hold, which Config.Validate rejects: it panics
// rather than alias another branch.
func (b *BTB) key(pc uint64) uint32 {
	if pc >= b.pcLimit {
		panic("btb: PC outside isa.AddrBits or its tag word")
	}
	return validBit | uint32(pc>>b.tagShift)
}

func log2(v int) uint {
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// BankOf returns the bank a PC's set maps to; concurrent lookups to the
// same bank in one cycle conflict.
func (b *BTB) BankOf(pc uint64) int {
	return b.setOf(pc) & (b.cfg.Banks - 1)
}

// Banks returns the number of banks.
func (b *BTB) Banks() int { return b.cfg.Banks }

// Lookup returns the predicted target and kind for a branch at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, kind BranchKind, hit bool) {
	b.stats.Lookups++
	base := b.setOf(pc) * b.cfg.Ways
	tags, data := b.tags[base:base+b.cfg.Ways], b.data[base:base+b.cfg.Ways]
	want := b.key(pc)
	for w, tv := range tags {
		if tv == want {
			e := data[w]
			lru.ToFront(tags, w, want)
			lru.ToFront(data, w, e)
			b.stats.Hits++
			return e.target(), e.kind(), true
		}
	}
	return 0, 0, false
}

// Probe checks for a branch at pc without touching LRU or statistics.
// UCP's alternate-path walker uses it to discover taken-at-least-once
// branches along a never-fetched path (§IV-C).
func (b *BTB) Probe(pc uint64) (target uint64, kind BranchKind, hit bool) {
	base := b.setOf(pc) * b.cfg.Ways
	want := b.key(pc)
	for w, tv := range b.tags[base : base+b.cfg.Ways] {
		if tv == want {
			e := b.data[base+w]
			return e.target(), e.kind(), true
		}
	}
	return 0, 0, false
}

// Insert installs or refreshes the entry for a taken branch at pc as
// its set's most recent way, a new one over the last (LRU) way.
func (b *BTB) Insert(pc, target uint64, kind BranchKind) {
	b.stats.Inserts++
	base := b.setOf(pc) * b.cfg.Ways
	tags, data := b.tags[base:base+b.cfg.Ways], b.data[base:base+b.cfg.Ways]
	want := b.key(pc)
	w := slices.Index(tags, want)
	if w < 0 {
		w = len(tags) - 1
		if tags[w] != 0 {
			b.stats.Evictions++
		}
	}
	lru.ToFront(tags, w, want)
	lru.ToFront(data, w, pack(target, kind))
}

// Stats returns a copy of the traffic counters.
func (b *BTB) Stats() Stats { return b.stats }

// StorageBits returns the modeled hardware budget (32-bit targets,
// partial tags as in commercial BTBs).
func (b *BTB) StorageBits() int {
	entryBits := 1 + 16 + 32 + 2 + 3 // valid, partial tag, target, kind, lru
	return len(b.data) * entryBits
}

// StorageKB returns the budget in kilobytes.
func (b *BTB) StorageKB() float64 { return float64(b.StorageBits()) / 8 / 1024 }
