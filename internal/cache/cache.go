// Package cache implements the memory hierarchy of the baseline core
// (Table II): set-associative LRU caches with MSHRs (L1I, L1D, L2, LLC),
// TLBs (ITLB, DTLB, STLB), and a fixed-latency DRAM backend. The model
// is functional-with-latency: an access returns the cycle its data is
// available, misses allocate MSHRs and fill the line, and a full MSHR
// file delays the access until an outstanding miss retires — enough
// fidelity for the frontend questions the paper asks without modeling
// per-bank DRAM timing.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"ucp/internal/isa"
	"ucp/internal/lru"
	"ucp/internal/recycle"
)

// LineBytes is the cache line size throughout the hierarchy.
const LineBytes = 64

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency uint64
	MSHRs      int
}

// Stats counts per-level traffic.
type Stats struct {
	Accesses, Hits, Misses uint64
	Prefetches             uint64
	PrefetchDropped        uint64
	Evictions              uint64
	MSHRStalls             uint64
}

// validBit marks a live way in a packed 32-bit tag word. A tag is a
// block number over the set count; Validate accepts only geometries
// whose tags, for addresses below 1<<isa.AddrBits, stay under it.
const validBit = uint32(1) << 31

// mshrEntry is one in-flight miss: the line address and its
// fill-complete cycle.
type mshrEntry struct {
	la    uint64
	ready uint64
}

// Cache is one set-associative level backed by a lower Level.
type Cache struct {
	cfg  Config
	ways int
	// tags packs each way's valid bit and tag as validBit|tag (zero =
	// invalid). Each set is kept in recency order (lru.ToFront), so the
	// array is the whole LRU state and the hit loop scans at most one
	// cache line for a set of up to 16 ways.
	tags  []uint32 // sets × ways
	lower Level
	stats Stats
	index setIndex

	// mshr holds in-flight line addresses with their fill-complete
	// cycles, in allocation order. The file is small (Config.MSHRs), so
	// a flat slice beats a map: lookups are a short linear scan and
	// purge/victim selection do not pay map-iteration overhead.
	mshr []mshrEntry
}

// Level is anything that can serve a line fetch.
type Level interface {
	// FetchLine returns the cycle at which the line containing addr is
	// available, issuing the request at cycle now.
	FetchLine(addr uint64, now uint64) uint64
	// WarmLine installs the line without engaging the MSHR/latency
	// model (warm.go).
	WarmLine(addr uint64)
}

// FixedLatency is a Level with a constant access time (the DRAM model:
// tRP+tRCD+tCAS at 12.5ns each ≈ 150 cycles at 4GHz, Table II).
type FixedLatency struct {
	Latency  uint64
	Accesses uint64
}

// FetchLine implements Level.
func (f *FixedLatency) FetchLine(_ uint64, now uint64) uint64 {
	f.Accesses++
	return now + f.Latency
}

// sets returns the level's set count: its lines over its ways, at
// least one.
func (c Config) sets() int { return max(c.SizeBytes/LineBytes/c.Ways, 1) }

// validate rejects a level with no ways, or whose tags for addresses
// below 1<<isa.AddrBits would not fit beside the valid bit.
func (c Config) validate() error {
	if c.Ways < 1 {
		return fmt.Errorf("cache: %s Ways must be positive, got %d", c.Name, c.Ways)
	}
	return tagsFit(c.Name, lineBlockBits, c.sets())
}

// lineBlockBits is the width of a line number: an address's bits above
// the line offset.
const lineBlockBits = isa.AddrBits - 6

// tagsFit reports an error unless every block number of blockBits
// bits splits, over sets sets, into a tag below validBit.
func tagsFit(name string, blockBits, sets int) error {
	maxTag := (blockLimit(blockBits) - 1) / uint64(sets)
	if maxTag < uint64(validBit) {
		return nil
	}
	return fmt.Errorf("cache: %s: a %d-bit address over a set count of %d leaves a %d-bit tag, wider than the %d bits beside the valid bit",
		name, isa.AddrBits, sets, bits.Len64(maxTag), bits.Len32(validBit-1))
}

// New constructs a cache level on top of lower.
func New(cfg Config, lower Level) *Cache {
	sets := cfg.sets()
	c := &Cache{
		cfg:   cfg,
		ways:  cfg.Ways,
		tags:  recycle.Make[uint32](sets * cfg.Ways),
		lower: lower,
		mshr:  make([]mshrEntry, 0, cfg.MSHRs+1),
		index: newSetIndex(sets, lineBlockBits),
	}
	return c
}

// Release hands the tag array back to package recycle; the cache must
// not be used afterwards.
func (c *Cache) Release() {
	recycle.Free(c.tags)
	c.tags = nil
}

// setIndex maps a block number (a line address over LineBytes, or a
// page number) to its set and tag. Every shipped TLB and every cache
// but the 30 MiB LLC (40 960 sets) has a power-of-two set count, where
// the mapping is a mask and a shift; otherwise the tag is the block
// number over the set count, taken as the high word of its product
// with a precomputed reciprocal (a division costs several times the
// multiply), and the set is the remainder.
type setIndex struct {
	sets  uint64
	pow2  bool
	mask  uint64
	shift uint
	// recip is ceil(2^64 / sets) for a set count that is not a power
	// of two. Every block n below limit has n*sets < 2^64, so the high
	// word of n*recip is exactly n / sets.
	recip uint64
	// limit is the first block number locate rejects: the first past
	// the address width (blockBits wide) or the first whose tag does
	// not fit under validBit, whichever is lower.
	limit uint64
}

// blockLimit returns the first block number of blockBits bits past
// the address width.
func blockLimit(blockBits int) uint64 { return 1 << max(blockBits, 0) }

// newSetIndex returns the index of sets sets over block numbers of
// blockBits bits.
func newSetIndex(sets, blockBits int) setIndex {
	x := setIndex{sets: uint64(sets), limit: min(blockLimit(blockBits), uint64(sets)*uint64(validBit))}
	if sets&(sets-1) == 0 {
		x.pow2 = true
		x.mask = uint64(sets - 1)
		for 1<<x.shift < sets {
			x.shift++
		}
		return x
	}
	// Every block is below 2^35 (isa.AddrBits over 64-byte lines), so
	// only a set count of 2^29 or more, a tag array of 2 GiB or more,
	// could fail the bound.
	if hi, _ := bits.Mul64(x.limit, x.sets); hi != 0 {
		panic(fmt.Sprintf("cache: %d sets are too many to index", sets))
	}
	x.recip = math.MaxUint64/x.sets + 1
	return x
}

// split returns block's set and tag.
func (x *setIndex) split(block uint64) (set int, tag uint64) {
	if x.pow2 {
		return int(block & x.mask), block >> (x.shift % 64)
	}
	tag, _ = bits.Mul64(block, x.recip)
	return int(block - tag*x.sets), tag
}

// locate returns block's set and its tag word, validBit|tag. A block
// at or past limit is an address outside isa.AddrBits, which the trace
// sources reject, or one whose tag the geometry cannot hold, which
// Config.Validate rejects: it panics rather than alias another block.
func (x *setIndex) locate(block uint64) (set int, want uint32) {
	if block >= x.limit {
		panic("cache: address outside isa.AddrBits or its tag word")
	}
	set, tag := x.split(block)
	return set, validBit | uint32(tag)
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

// locate returns la's set base index into tags and its tag with the
// valid bit set.
func (c *Cache) locate(la uint64) (base int, want uint32) {
	set, want := c.index.locate(la / LineBytes)
	return set * c.ways, want
}

// purge drops completed MSHR entries, preserving allocation order.
func (c *Cache) purge(now uint64) {
	kept := c.mshr[:0]
	for _, e := range c.mshr {
		if e.ready > now {
			kept = append(kept, e)
		}
	}
	c.mshr = kept
}

// mshrFind returns the index of la's in-flight entry, or -1.
func (c *Cache) mshrFind(la uint64) int {
	for i := range c.mshr {
		if c.mshr[i].la == la {
			return i
		}
	}
	return -1
}

// mshrDelete removes entry i, preserving allocation order.
func (c *Cache) mshrDelete(i int) {
	c.mshr = append(c.mshr[:i], c.mshr[i+1:]...)
}

// Contains reports whether the line holding addr is resident (no state
// update, no timing effect). Used by the L1I-Hits ideal configuration.
func (c *Cache) Contains(addr uint64) bool {
	base, want := c.locate(c.lineAddr(addr))
	for _, tv := range c.tags[base : base+c.ways] {
		if tv == want {
			return true
		}
	}
	return false
}

// FetchLine implements Level: demand access issued at cycle `now`,
// returning the data-ready cycle.
func (c *Cache) FetchLine(addr uint64, now uint64) uint64 {
	return c.access(addr, now, false)
}

// Prefetch brings a line in without charging a consumer. It returns the
// fill-complete cycle and whether the line was already resident.
func (c *Cache) Prefetch(addr uint64, now uint64) (done uint64, resident bool) {
	la := c.lineAddr(addr)
	if c.Contains(la) {
		return now, true
	}
	c.stats.Prefetches++
	return c.access(addr, now, true), false
}

func (c *Cache) access(addr uint64, now uint64, isPrefetch bool) uint64 {
	la := c.lineAddr(addr)
	if !isPrefetch {
		c.stats.Accesses++
	}
	base, want := c.locate(la)
	set := c.tags[base : base+c.ways]
	for w, tv := range set {
		if tv == want {
			lru.ToFront(set, w, want)
			if !isPrefetch {
				c.stats.Hits++
			}
			return now + c.cfg.HitLatency
		}
	}
	if !isPrefetch {
		c.stats.Misses++
	}
	// Merge with an outstanding miss for the same line. Entries whose
	// fill already completed are stale (purged lazily): drop them and
	// treat this as a fresh miss.
	if i := c.mshrFind(la); i >= 0 {
		ready := c.mshr[i].ready
		if ready > now {
			if ready < now+c.cfg.HitLatency {
				return now + c.cfg.HitLatency
			}
			return ready
		}
		c.mshrDelete(i)
	}
	issue := now
	if len(c.mshr) >= c.cfg.MSHRs {
		c.purge(now)
	}
	if len(c.mshr) >= c.cfg.MSHRs {
		// MSHR file full: the request waits for the earliest outstanding
		// fill to retire.
		earliest := ^uint64(0)
		victim := 0
		for i := range c.mshr {
			if c.mshr[i].ready < earliest {
				earliest, victim = c.mshr[i].ready, i
			}
		}
		c.stats.MSHRStalls++
		c.mshrDelete(victim)
		if earliest > issue {
			issue = earliest
		}
	}
	ready := c.lower.FetchLine(la, issue+c.cfg.HitLatency)
	c.mshr = append(c.mshr, mshrEntry{la: la, ready: ready})
	c.fill(base, want)
	return ready
}

// fill installs the line whose tag is want at the front of the set at
// base, evicting its last (LRU) way. (The timing of availability is
// carried by the returned ready cycle; the directory state updates
// eagerly, which is the standard trace-simulator simplification.)
func (c *Cache) fill(base int, want uint32) {
	set := c.tags[base : base+c.ways]
	last := len(set) - 1
	if set[last] != 0 {
		c.stats.Evictions++
	}
	lru.ToFront(set, last, want)
}

// Stats returns a copy of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets (for bank interleaving by consumers).
func (c *Cache) Sets() int { return int(c.index.sets) }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }
