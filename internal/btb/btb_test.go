package btb

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ucp/internal/isa"
)

func small() *BTB { return New(Config{Entries: 64, Ways: 4, Banks: 8}) }

func TestInsertLookup(t *testing.T) {
	b := small()
	b.Insert(0x1000, 0x2000, KindCond)
	target, kind, hit := b.Lookup(0x1000)
	if !hit || target != 0x2000 || kind != KindCond {
		t.Fatalf("lookup = %#x %v %v", target, kind, hit)
	}
	if _, _, hit := b.Lookup(0x1004); hit {
		t.Fatal("phantom hit")
	}
}

func TestUpdateExistingEntry(t *testing.T) {
	b := small()
	b.Insert(0x1000, 0x2000, KindCond)
	b.Insert(0x1000, 0x3000, KindCond)
	target, _, hit := b.Lookup(0x1000)
	if !hit || target != 0x3000 {
		t.Fatalf("update failed: %#x %v", target, hit)
	}
	if s := b.Stats(); s.Evictions != 0 {
		t.Fatalf("in-place update must not evict (%d)", s.Evictions)
	}
}

func TestLRUEviction(t *testing.T) {
	b := small() // 16 sets, 4 ways
	// Five PCs mapping to the same set: stride = sets*4 bytes.
	stride := uint64(16 * 4)
	for i := 0; i < 4; i++ {
		b.Insert(0x1000+uint64(i)*stride, 0x9000, KindDirect)
	}
	// Touch the first entry so it is MRU.
	if _, _, hit := b.Lookup(0x1000); !hit {
		t.Fatal("expected hit")
	}
	// Insert a fifth entry: victim must be the LRU (second inserted).
	b.Insert(0x1000+4*stride, 0x9000, KindDirect)
	if _, _, hit := b.Lookup(0x1000); !hit {
		t.Fatal("MRU entry was evicted")
	}
	if _, _, hit := b.Lookup(0x1000 + stride); hit {
		t.Fatal("LRU entry survived")
	}
}

func TestBankMapping(t *testing.T) {
	b := New(DefaultConfig())
	if b.Banks() != 16 {
		t.Fatalf("banks = %d", b.Banks())
	}
	u := New(UCPConfig())
	if u.Banks() != 32 {
		t.Fatalf("UCP banks = %d", u.Banks())
	}
	// Property: bank is stable and within range.
	if err := quick.Check(func(pc uint64) bool {
		bank := u.BankOf(pc)
		return bank >= 0 && bank < 32 && bank == u.BankOf(pc)
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Consecutive sets must map to different banks (interleaving).
	if u.BankOf(0x1000) == u.BankOf(0x1004) {
		t.Fatal("adjacent PCs map to the same bank; interleaving broken")
	}
}

func TestKindOf(t *testing.T) {
	cases := map[isa.Class]BranchKind{
		isa.CondBranch:   KindCond,
		isa.DirectJump:   KindDirect,
		isa.Call:         KindDirect,
		isa.IndirectJump: KindIndirect,
		isa.IndirectCall: KindIndirect,
		isa.Return:       KindReturn,
	}
	for c, want := range cases {
		if got := KindOf(c); got != want {
			t.Errorf("KindOf(%v) = %v, want %v", c, got, want)
		}
	}
}

func TestCapacityProperty(t *testing.T) {
	// Inserting arbitrarily many entries never loses the ability to
	// retrieve the most recent insertion.
	if err := quick.Check(func(pcs []uint32) bool {
		b := small()
		for _, pc32 := range pcs {
			pc := uint64(pc32) &^ 3
			b.Insert(pc, pc+4, KindDirect)
			if tgt, _, hit := b.Lookup(pc); !hit || tgt != pc+4 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	b := small()
	b.Insert(0x1000, 0x2000, KindCond)
	b.Lookup(0x1000)
	b.Lookup(0x2000)
	s := b.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Inserts != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestStorage(t *testing.T) {
	b := New(DefaultConfig())
	kb := b.StorageKB()
	// 64K entries at ~54 bits each ≈ 432KB: the "large frontend
	// structure" the paper says UCP must not replicate.
	if kb < 300 || kb > 600 {
		t.Fatalf("BTB storage %.0fKB implausible", kb)
	}
}

// TestAddressOutsideWidthPanics: no PC or target outside isa.AddrBits
// reaches the BTB's arrays. The Table II BTB panics on one, and so does
// a BTB whose geometry Validate rejects, on a PC inside the width whose
// tag it cannot hold; the highest PC and target inside the width go
// through, and a way's payload is 8 bytes.
func TestAddressOutsideWidthPanics(t *testing.T) {
	top := uint64(1) << isa.AddrBits
	b := New(DefaultConfig())
	b.Insert(top-4, top-4, KindReturn)
	if tgt, kind, hit := b.Lookup(top - 4); !hit || tgt != top-4 || kind != KindReturn {
		t.Fatalf("Lookup at the top of the width = %#x,%v,%v", tgt, kind, hit)
	}
	narrow := Config{Entries: 1024, Ways: 8, Banks: 16}
	if err := narrow.Validate(); err == nil || !strings.Contains(err.Error(), "use at least 256 sets") {
		t.Errorf("Validate of a 128-set BTB: %v", err)
	}
	for name, f := range map[string]func(){
		"Lookup":             func() { b.Lookup(top) },
		"Probe":              func() { b.Probe(top) },
		"Insert PC":          func() { b.Insert(top, 0x1000, KindCond) },
		"Insert target":      func() { b.Insert(0x1000, top, KindCond) },
		"128 sets, in width": func() { New(narrow).Lookup(top / 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if size := unsafe.Sizeof(entry(0)); size != 8 {
		t.Errorf("a way's payload is %d bytes, want 8", size)
	}
}
