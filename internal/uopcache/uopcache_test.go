package uopcache

import (
	"testing"
	"testing/quick"

	"ucp/internal/isa"
)

func TestGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Sets() != 64 {
		t.Fatalf("4Kops sets = %d, want 64 (Table II)", cfg.Sets())
	}
	if ConfigOps(8192).Sets() != 128 || ConfigOps(65536).Sets() != 1024 {
		t.Fatal("size sweep geometry wrong")
	}
}

func TestInsertLookup(t *testing.T) {
	u := New(DefaultConfig())
	u.Insert(0x1004, 7, 1, true, false)
	e, hit := u.Lookup(0x1004)
	if !hit || e.Ops != 7 || e.Branches != 1 || !e.EndsTaken {
		t.Fatalf("lookup: %+v hit=%v", e, hit)
	}
	// An entry is keyed by its exact start PC: same region, different
	// offset must miss.
	if _, hit := u.Lookup(0x1000); hit {
		t.Fatal("offset-mismatched lookup hit")
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	u := New(DefaultConfig())
	u.Insert(0x2000, 8, 0, false, true)
	for i := 0; i < 5; i++ {
		if !u.Probe(0x2000) {
			t.Fatal("probe missed")
		}
	}
	s := u.Stats()
	if s.Lookups != 0 || s.Hits != 0 || s.PrefetchUsed != 0 {
		t.Fatalf("probe mutated stats: %+v", s)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	u := New(DefaultConfig())
	u.Insert(0x3000, 8, 0, false, true)
	u.Insert(0x4000, 8, 0, false, true)
	if s := u.Stats(); s.PrefetchInserts != 2 {
		t.Fatalf("prefetch inserts %d", s.PrefetchInserts)
	}
	u.Lookup(0x3000)
	u.Lookup(0x3000) // second hit must not double-count
	if s := u.Stats(); s.PrefetchUsed != 1 {
		t.Fatalf("prefetch used %d, want 1", s.PrefetchUsed)
	}
	// Evict the unused prefetched entry at 0x4000 by filling its set.
	cfg := DefaultConfig()
	stride := uint64(cfg.Sets() * isa.EntryBytes)
	for i := 1; i <= cfg.Ways; i++ {
		u.Insert(0x4000+uint64(i)*stride, 8, 0, false, false)
	}
	if s := u.Stats(); s.PrefetchEvictUnused != 1 {
		t.Fatalf("unused prefetch evictions %d, want 1", s.PrefetchEvictUnused)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := DefaultConfig()
	u := New(cfg)
	stride := uint64(cfg.Sets() * isa.EntryBytes)
	for i := 0; i <= cfg.Ways; i++ { // one more than the ways
		u.Insert(uint64(i)*stride, 8, 0, false, false)
		if i == 0 {
			continue
		}
		u.Lookup(0) // keep the first entry MRU
	}
	if _, hit := u.Lookup(0); !hit {
		t.Fatal("MRU entry evicted")
	}
	if _, hit := u.Lookup(stride); hit {
		t.Fatal("LRU entry survived")
	}
}

func TestBankInterleaving(t *testing.T) {
	u := New(DefaultConfig())
	if u.BankOf(0x1000) == u.BankOf(0x1020) {
		t.Fatal("adjacent regions map to the same bank")
	}
	if err := quick.Check(func(pc uint64) bool {
		b := u.BankOf(pc)
		return b >= 0 && b < 2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRefreshesInPlace(t *testing.T) {
	u := New(DefaultConfig())
	u.Insert(0x5000, 4, 1, false, false)
	u.Insert(0x5000, 6, 2, true, false)
	e, hit := u.Lookup(0x5000)
	if !hit || e.Ops != 6 || e.Branches != 2 || !e.EndsTaken {
		t.Fatalf("refresh failed: %+v", e)
	}
	if s := u.Stats(); s.Evictions != 0 {
		t.Fatal("in-place refresh evicted")
	}
}

// buildSeq runs a sequence through a Builder and returns the cache.
func buildSeq(t *testing.T, seq []struct {
	pc    uint64
	class isa.Class
	taken bool
}) *UopCache {
	t.Helper()
	u := New(DefaultConfig())
	b := NewBuilder(u, false)
	for _, s := range seq {
		b.Add(s.pc, s.class, s.taken)
	}
	b.Flush(false)
	return u
}

func TestBuilderRegionBoundary(t *testing.T) {
	// 10 sequential ALU ops starting at 0x1000: the first 8 fill one
	// entry (32B region), the next 2 open a second entry at 0x1020.
	var seq []struct {
		pc    uint64
		class isa.Class
		taken bool
	}
	for i := 0; i < 10; i++ {
		seq = append(seq, struct {
			pc    uint64
			class isa.Class
			taken bool
		}{0x1000 + uint64(i)*4, isa.ALU, false})
	}
	u := buildSeq(t, seq)
	e, hit := u.Lookup(0x1000)
	if !hit || e.Ops != 8 {
		t.Fatalf("first entry: %+v hit=%v", e, hit)
	}
	e, hit = u.Lookup(0x1020)
	if !hit || e.Ops != 2 {
		t.Fatalf("second entry: %+v hit=%v", e, hit)
	}
}

func TestBuilderTakenBranchTerminates(t *testing.T) {
	u := New(DefaultConfig())
	b := NewBuilder(u, false)
	b.Add(0x1000, isa.ALU, false)
	b.Add(0x1004, isa.CondBranch, true) // predicted taken → terminate
	b.Add(0x2000, isa.ALU, false)       // branch target: new entry
	b.Flush(false)
	e, hit := u.Lookup(0x1000)
	if !hit || e.Ops != 2 || !e.EndsTaken || e.Branches != 1 {
		t.Fatalf("taken-terminated entry: %+v", e)
	}
	if _, hit := u.Lookup(0x2000); !hit {
		t.Fatal("entry at branch target missing")
	}
}

func TestBuilderMidRegionEntryStart(t *testing.T) {
	// Fetch enters a region at a non-zero offset (branch target at
	// 0x100c): the entry must start there and cover to the boundary.
	u := New(DefaultConfig())
	b := NewBuilder(u, false)
	for pc := uint64(0x100c); pc < 0x1020; pc += 4 {
		b.Add(pc, isa.ALU, false)
	}
	b.Flush(false)
	e, hit := u.Lookup(0x100c)
	if !hit || e.Ops != 5 {
		t.Fatalf("mid-region entry: %+v hit=%v", e, hit)
	}
}

func TestBuilderThirdBranchStartsNewEntry(t *testing.T) {
	// Three not-taken branches in one region: the third must start a
	// second entry in the same region (§III-A).
	u := New(DefaultConfig())
	b := NewBuilder(u, false)
	b.Add(0x1000, isa.CondBranch, false)
	b.Add(0x1004, isa.CondBranch, false)
	b.Add(0x1008, isa.CondBranch, false)
	b.Add(0x100c, isa.ALU, false)
	b.Flush(false)
	e, hit := u.Lookup(0x1000)
	if !hit || e.Ops != 2 || e.Branches != 2 {
		t.Fatalf("first entry: %+v hit=%v", e, hit)
	}
	e, hit = u.Lookup(0x1008)
	if !hit || e.Ops != 2 || e.Branches != 1 {
		t.Fatalf("second entry: %+v hit=%v", e, hit)
	}
}

func TestBuilderNonSequentialFlushes(t *testing.T) {
	// A jump within the same region still breaks the entry (µ-ops must
	// be consecutive).
	u := New(DefaultConfig())
	b := NewBuilder(u, false)
	b.Add(0x1000, isa.ALU, false)
	b.Add(0x1010, isa.ALU, false) // gap
	b.Flush(false)
	if _, hit := u.Lookup(0x1000); !hit {
		t.Fatal("first fragment missing")
	}
	if _, hit := u.Lookup(0x1010); !hit {
		t.Fatal("second fragment missing")
	}
}

func TestBuilderProperty(t *testing.T) {
	// Property: entries never exceed 8 ops or 2 branches, and always lie
	// within one region.
	if err := quick.Check(func(seed uint64, n uint8) bool {
		u := New(DefaultConfig())
		b := NewBuilder(u, false)
		pc := uint64(0x1000)
		x := seed
		for i := 0; i < int(n)+5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			cl := isa.ALU
			taken := false
			switch x >> 60 {
			case 0:
				cl, taken = isa.CondBranch, x>>59&1 == 0
			case 1:
				cl, taken = isa.DirectJump, true
			}
			b.Add(pc, cl, taken)
			if taken {
				pc = (x >> 32 &^ 3) & 0xffff0
			} else {
				pc += 4
			}
		}
		b.Flush(false)
		for i := range u.data {
			if u.tags[i] == 0 {
				continue
			}
			e := &u.data[i]
			if e.Ops == 0 || e.Ops > 8 || e.Branches > 2 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStorage(t *testing.T) {
	u := New(DefaultConfig())
	kb := u.StorageKB()
	// 4K µ-ops ≈ 19KB of op storage + tags: the paper quotes ~24.9KB of
	// x86 reach for Zen4's 6.75Kops; the order of magnitude must match.
	if kb < 10 || kb > 40 {
		t.Fatalf("4Kops storage %.1fKB implausible", kb)
	}
	if New(ConfigOps(8192)).StorageKB() < 1.9*kb {
		t.Fatal("8Kops should be ~2x the 4Kops budget")
	}
}

func TestSplitBuilderAgreement(t *testing.T) {
	// Property: for any consecutive fetch run, Split's entry specs and
	// the Builder's inserted entries agree exactly (same keys, ops,
	// branch counts, termination flags).
	if err := quick.Check(func(seed uint64, n uint8) bool {
		cfg := DefaultConfig()
		var metas []InstMeta
		pc := uint64(0x1000)
		x := seed
		for i := 0; i < int(n%48)+4; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			cl := isa.ALU
			taken := false
			switch x >> 61 {
			case 0:
				cl, taken = isa.CondBranch, x>>60&1 == 0
			case 1:
				cl, taken = isa.DirectJump, true
			}
			metas = append(metas, InstMeta{PC: pc, Class: cl, PredTaken: taken})
			if taken {
				pc = (x >> 33 &^ 3) & 0xffffc
			} else {
				pc += 4
			}
		}
		specs := Split(metas, cfg)
		u := New(cfg)
		b := NewBuilder(u, false)
		for _, m := range metas {
			b.Add(m.PC, m.Class, m.PredTaken)
		}
		b.Flush(false)
		// Every spec key must exist; when control flow revisits a start
		// PC, the cache keeps the LAST build (in-place refresh), so
		// metadata is compared against the last spec per key.
		lastSpec := map[uint64]EntrySpec{}
		for _, s := range specs {
			lastSpec[s.StartPC] = s
		}
		for _, s := range specs {
			if _, hit := u.Lookup(s.StartPC); !hit {
				return false
			}
		}
		for pc, s := range lastSpec {
			e, hit := u.Lookup(pc)
			if !hit || e.Ops != s.Ops || e.Branches != s.Branches {
				return false
			}
		}
		// Total ops across specs must equal the instruction count.
		total := 0
		for _, s := range specs {
			total += int(s.Ops)
		}
		return total == len(metas)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitEmpty(t *testing.T) {
	if got := Split(nil, DefaultConfig()); len(got) != 0 {
		t.Fatalf("Split(nil) = %v", got)
	}
}
