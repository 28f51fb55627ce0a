package btb

import (
	"fmt"
	"slices"

	"ucp/internal/lru"
	"ucp/internal/recycle"
)

// Block-based BTB (Perais & Sheikh, MICRO'23 — discussed in §IV-C as an
// alternative organization): one entry covers an aligned code *block*
// and records up to N taken-at-least-once branches inside it, so a
// single lookup returns every branch of the block. Both the demand and
// alternate paths can then be served with far fewer banks, since one
// access per block replaces one access per branch. UCP is agnostic of
// the organization (§IV-C); this implementation lets the ablation
// benchmarks quantify that claim.

// BlockConfig sizes a block-based BTB.
//
//ucplint:config
type BlockConfig struct {
	// Blocks is the total number of block entries (power of two).
	Blocks int
	// Ways is the set associativity.
	Ways int
	// BlockBytes is the aligned code region one entry covers.
	BlockBytes int
	// BranchesPerBlock bounds the taken branches recorded per entry.
	BranchesPerBlock int
	// Banks is the number of lookup banks.
	Banks int
}

// Validate rejects geometries the indexing and the entry cannot hold:
// BankOf masks with Banks-1, a branch's offset is a uint8 count of
// 4-byte slots, and an entry has 16 branch slots.
func (c BlockConfig) Validate() error {
	switch {
	case !isPow2(c.Blocks):
		return fmt.Errorf("btb: block Blocks must be a positive power of two, got %d", c.Blocks)
	case c.Ways <= 0 || c.Ways > c.Blocks:
		return fmt.Errorf("btb: block Ways must be in [1,Blocks=%d], got %d", c.Blocks, c.Ways)
	case !isPow2(c.BlockBytes) || c.BlockBytes < 4 || c.BlockBytes > 1024:
		return fmt.Errorf("btb: BlockBytes must be a power of two in [4,1024], got %d", c.BlockBytes)
	case c.BranchesPerBlock <= 0 || c.BranchesPerBlock > len(blockEntry{}):
		return fmt.Errorf("btb: BranchesPerBlock must be in [1,16], got %d", c.BranchesPerBlock)
	case !isPow2(c.Banks):
		return fmt.Errorf("btb: block Banks must be a positive power of two, got %d", c.Banks)
	}
	return nil
}

// DefaultBlockConfig matches the reach of the 64K-entry instruction BTB
// with 8K 64-byte blocks × up to 8 branches.
func DefaultBlockConfig() BlockConfig {
	return BlockConfig{Blocks: 8192, Ways: 4, BlockBytes: 64, BranchesPerBlock: 8, Banks: 4}
}

// blockBranch is one recorded branch. A block's valid branches are a
// prefix of its slots: Insert fills the first free one, and a full
// block drops its oldest branch by shifting the rest forward.
type blockBranch struct {
	valid  bool
	offset uint8 // (pc - blockBase) / 4
	target uint64
	kind   BranchKind // nbits:2
}

type blockEntry [16]blockBranch

// blockValid marks a live way in the packed tag array. Block tags are
// PCs over at least 4 bytes, so bit 63 is never part of one.
const blockValid = uint64(1) << 63

// BlockBTB is a block-organized branch target buffer. Its tags pack
// each way's valid bit and tag as blockValid|tag (zero = invalid), and
// each set is kept in recency order (lru.ToFront), its entries moving
// with their tags.
type BlockBTB struct {
	cfg   BlockConfig
	sets  int
	tags  []uint64     // sets × ways
	data  []blockEntry // sets × ways
	stats Stats
}

// NewBlock constructs a block-based BTB of a validated geometry.
func NewBlock(cfg BlockConfig) *BlockBTB {
	sets := cfg.Blocks / cfg.Ways
	return &BlockBTB{cfg: cfg, sets: sets,
		tags: recycle.Make[uint64](sets * cfg.Ways), data: recycle.Make[blockEntry](sets * cfg.Ways)}
}

// Release implements TargetBuffer.
func (b *BlockBTB) Release() {
	recycle.Free(b.tags)
	recycle.Free(b.data)
	b.tags, b.data = nil, nil
}

func (b *BlockBTB) blockOf(pc uint64) uint64 { return pc / uint64(b.cfg.BlockBytes) }

func (b *BlockBTB) setOf(pc uint64) int { return int(b.blockOf(pc) % uint64(b.sets)) }

func (b *BlockBTB) tagOf(pc uint64) uint64 { return blockValid | b.blockOf(pc)/uint64(b.sets) }

// set returns the tags and entries of pc's set.
func (b *BlockBTB) set(pc uint64) ([]uint64, []blockEntry) {
	base := b.setOf(pc) * b.cfg.Ways
	return b.tags[base : base+b.cfg.Ways], b.data[base : base+b.cfg.Ways]
}

// BankOf returns the lookup bank for pc's block.
func (b *BlockBTB) BankOf(pc uint64) int { return b.setOf(pc) & (b.cfg.Banks - 1) }

// Banks returns the bank count.
func (b *BlockBTB) Banks() int { return b.cfg.Banks }

// find returns pc's block entry and branch, either nil if absent. touch
// makes a found block its set's most recent way.
func (b *BlockBTB) find(pc uint64, touch bool) (*blockEntry, *blockBranch) {
	tags, data := b.set(pc)
	w := slices.Index(tags, b.tagOf(pc))
	if w < 0 {
		return nil, nil
	}
	if touch {
		lru.ToFront(tags, w, tags[w])
		lru.ToFront(data, w, data[w])
		w = 0
	}
	e := &data[w]
	off := uint8((pc % uint64(b.cfg.BlockBytes)) / 4)
	for i := range e[:b.cfg.BranchesPerBlock] {
		if br := &e[i]; br.valid && br.offset == off {
			return e, br
		}
	}
	return e, nil
}

// Lookup returns the target and kind of a branch at pc.
func (b *BlockBTB) Lookup(pc uint64) (target uint64, kind BranchKind, hit bool) {
	b.stats.Lookups++
	_, br := b.find(pc, true)
	if br == nil {
		return 0, 0, false
	}
	b.stats.Hits++
	return br.target, br.kind, true
}

// Probe checks for a branch at pc without LRU or statistics effects.
func (b *BlockBTB) Probe(pc uint64) (target uint64, kind BranchKind, hit bool) {
	_, br := b.find(pc, false)
	if br == nil {
		return 0, 0, false
	}
	return br.target, br.kind, true
}

// Insert installs or refreshes the branch at pc. A new block takes its
// set's last way (empty if any is, else the least recently used) and
// moves it to the front.
func (b *BlockBTB) Insert(pc, target uint64, kind BranchKind) {
	b.stats.Inserts++
	e, br := b.find(pc, true)
	if br != nil {
		br.target = target
		br.kind = kind
		return
	}
	if e == nil {
		tags, data := b.set(pc)
		if tags[len(tags)-1] != 0 {
			b.stats.Evictions++
		}
		lru.ToFront(tags, len(tags)-1, b.tagOf(pc))
		lru.ToFront(data, len(data)-1, blockEntry{})
		e = &data[0]
	}
	nb := blockBranch{valid: true, offset: uint8((pc % uint64(b.cfg.BlockBytes)) / 4), target: target, kind: kind}
	// Free slot, else replace the first branch (FIFO within the block).
	slots := e[:b.cfg.BranchesPerBlock]
	for i := range slots {
		if !slots[i].valid {
			slots[i] = nb
			return
		}
	}
	copy(slots, slots[1:])
	slots[len(slots)-1] = nb
}

// Stats returns a copy of the traffic counters.
func (b *BlockBTB) Stats() Stats { return b.stats }

// StorageBits returns the modeled hardware budget: per block a tag plus
// BranchesPerBlock × (valid, offset, compressed target, kind).
func (b *BlockBTB) StorageBits() int {
	perBranch := 1 + 4 + 32 + 2
	perBlock := 16 + 3 + b.cfg.BranchesPerBlock*perBranch
	return b.sets * b.cfg.Ways * perBlock
}

// StorageKB returns the budget in kilobytes.
func (b *BlockBTB) StorageKB() float64 { return float64(b.StorageBits()) / 8 / 1024 }
