package prefetch

import (
	"fmt"
	"slices"

	"ucp/internal/lru"
)

// MRC is the Misprediction Recovery Cache baseline (Nanda et al.,
// §VI-F): a fully-associative cache of decoded-µ-op streams tagged by
// the corrected branch target. On a misprediction, a tag hit streams up
// to OpsPerEntry µ-ops straight to the execution engine, skipping the
// fetch/decode refill; an entry is (re)recorded after every
// misprediction. The simulator models the entry directory and LRU here;
// the streamed µ-ops themselves are the trace's correct path, so only
// their accelerated delivery needs modeling (frontend fast-deliver
// credit).
type MRC struct {
	cfg MRCConfig
	// tags is the one fully-associative set, in recency order
	// (lru.ToFront), up to cfg.Entries long.
	tags []uint64
}

// MRCConfig sizes the MRC. The paper evaluates 64 µ-ops per entry at
// 16.5, 33, 66, and 132KB total.
//
//ucplint:config
type MRCConfig struct {
	Entries     int
	OpsPerEntry int
}

// Validate rejects empty or absurd MRC geometries.
func (c MRCConfig) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("prefetch: MRC Entries must be positive, got %d", c.Entries)
	}
	if c.OpsPerEntry <= 0 || c.OpsPerEntry > 1024 {
		return fmt.Errorf("prefetch: MRC OpsPerEntry must be in [1,1024], got %d", c.OpsPerEntry)
	}
	return nil
}

// MRCConfigKB returns a configuration of roughly the given storage
// (64 µ-ops ≈ 258B per entry including tag and LRU).
func MRCConfigKB(kb float64) MRCConfig {
	entries := int(kb * 1024 / 258)
	if entries < 1 {
		entries = 1
	}
	return MRCConfig{Entries: entries, OpsPerEntry: 64}
}

// NewMRC constructs an MRC of a validated geometry.
func NewMRC(cfg MRCConfig) *MRC {
	return &MRC{cfg: cfg, tags: make([]uint64, 0, cfg.Entries)}
}

// Lookup checks for a stream tagged with the corrected target.
func (m *MRC) Lookup(tag uint64) bool {
	i := slices.Index(m.tags, tag)
	if i >= 0 {
		lru.ToFront(m.tags, i, tag)
	}
	return i >= 0
}

// Record installs (or refreshes) the stream for the corrected target;
// a full MRC evicts its least recently used stream.
func (m *MRC) Record(tag uint64) {
	i := slices.Index(m.tags, tag)
	if i < 0 {
		if len(m.tags) < m.cfg.Entries {
			m.tags = append(m.tags, tag)
		}
		i = len(m.tags) - 1
	}
	lru.ToFront(m.tags, i, tag)
}

// OpsPerEntry returns the streamable µ-ops per hit.
func (m *MRC) OpsPerEntry() int { return m.cfg.OpsPerEntry }

// StorageKB returns the modeled hardware budget.
func (m *MRC) StorageKB() float64 {
	return float64(m.cfg.Entries) * 258 / 1024
}
