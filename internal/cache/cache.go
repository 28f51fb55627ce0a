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

// validBit marks a live way in a packed tag array. Tags are line
// addresses shifted right by ≥6 bits, so bit 63 is never part of a tag.
const validBit = uint64(1) << 63

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
	// array is the whole LRU state and the hit loop scans one cache
	// line per 8-way set.
	tags  []uint64 // sets × ways
	lower Level
	stats Stats
	index setIndex

	// OnEvict, when set, observes every line eviction (used to keep the
	// µ-op cache inclusive of the L1I, §IV-G2).
	OnEvict func(lineAddr uint64)

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

// New constructs a cache level on top of lower.
func New(cfg Config, lower Level) *Cache {
	lines := cfg.SizeBytes / LineBytes
	sets := lines / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	c := &Cache{
		cfg:   cfg,
		ways:  cfg.Ways,
		tags:  recycle.Make[uint64](sets * cfg.Ways),
		lower: lower,
		mshr:  make([]mshrEntry, 0, cfg.MSHRs+1),
		index: newSetIndex(sets),
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
// the mapping is a mask and a shift; otherwise it costs one division,
// whose remainder is recovered by a multiply.
type setIndex struct {
	sets  uint64
	pow2  bool
	mask  uint64
	shift uint
}

func newSetIndex(sets int) setIndex {
	x := setIndex{sets: uint64(sets)}
	if sets&(sets-1) == 0 {
		x.pow2 = true
		x.mask = uint64(sets - 1)
		for 1<<x.shift < sets {
			x.shift++
		}
	}
	return x
}

// split returns block's set and tag.
func (x setIndex) split(block uint64) (set int, tag uint64) {
	if x.pow2 {
		return int(block & x.mask), block >> x.shift
	}
	tag = block / x.sets
	return int(block - tag*x.sets), tag
}

// join is split's inverse: the block number of tag in set.
func (x setIndex) join(set int, tag uint64) uint64 { return tag*x.sets + uint64(set) }

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

// locate returns la's set base index into tags and its tag with the
// valid bit set.
func (c *Cache) locate(la uint64) (base int, want uint64) {
	set, tag := c.index.split(la / LineBytes)
	return set * c.ways, validBit | tag
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
func (c *Cache) fill(base int, want uint64) {
	set := c.tags[base : base+c.ways]
	if tv := set[c.ways-1]; tv != 0 {
		c.stats.Evictions++
		if c.OnEvict != nil {
			c.OnEvict(c.index.join(base/c.ways, tv&^validBit) * LineBytes)
		}
	}
	lru.ToFront(set, c.ways-1, want)
}

// Stats returns a copy of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets (for bank interleaving by consumers).
func (c *Cache) Sets() int { return int(c.index.sets) }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }
