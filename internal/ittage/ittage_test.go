package ittage

import (
	"testing"

	"ucp/internal/rng"
)

func TestLearnsMonomorphicTarget(t *testing.T) {
	p := New(Config4KB())
	const pc, target = 0x1000, 0x9000
	miss := 0
	for i := 0; i < 500; i++ {
		l := p.Predict(p.Hist(), pc)
		if i > 10 && l.Target != target {
			miss++
		}
		p.Update(pc, target, &l)
		p.Hist().Push(pc, target, true)
	}
	if miss > 0 {
		t.Fatalf("monomorphic target mispredicted %d times after warmup", miss)
	}
}

func TestLearnsHistoryCorrelatedTargets(t *testing.T) {
	// The indirect target is determined by the direction of the previous
	// conditional branch — classic ITTAGE territory.
	p := New(Config64KB())
	r := rng.New(3)
	miss, total := 0, 0
	for i := 0; i < 6000; i++ {
		dir := r.Bool(0.5)
		p.Hist().Push(0x2000, boolTarget(dir), dir)
		want := uint64(0x8000)
		if dir {
			want = 0x9000
		}
		l := p.Predict(p.Hist(), 0x3000)
		if i > 2000 {
			total++
			if l.Target != want {
				miss++
			}
		}
		p.Update(0x3000, want, &l)
		p.Hist().Push(0x3000, want, true)
	}
	if rate := float64(miss) / float64(total); rate > 0.05 {
		t.Fatalf("history-correlated target miss rate %.3f", rate)
	}
}

func boolTarget(b bool) uint64 {
	if b {
		return 0x111000
	}
	return 0x222000
}

func TestRandomTargetsAreHard(t *testing.T) {
	// A uniformly random 8-target switch cannot be predicted; the miss
	// rate must stay high (sanity check on the difficulty model).
	p := New(Config64KB())
	r := rng.New(9)
	miss, total := 0, 0
	for i := 0; i < 4000; i++ {
		want := uint64(0x4000 + r.Intn(8)*0x100)
		l := p.Predict(p.Hist(), 0x7000)
		if i > 1000 {
			total++
			if l.Target != want {
				miss++
			}
		}
		p.Update(0x7000, want, &l)
		p.Hist().Push(0x7000, want, true)
	}
	if rate := float64(miss) / float64(total); rate < 0.5 {
		t.Fatalf("random 8-target switch predicted at %.3f miss — too good to be true", rate)
	}
}

func TestHistSnapshotIsolation(t *testing.T) {
	p := New(Config4KB())
	for i := 0; i < 50; i++ {
		p.Hist().Push(uint64(0x100+i*4), uint64(0x200+i*8), i%2 == 0)
	}
	snap := *p.Hist() // value copy = alternate-path context
	before := p.Predict(p.Hist(), 0x5000)
	snap.Push(0xaaaa, 0xbbbb, true)
	snap.Push(0xcccc, 0xdddd, false)
	after := p.Predict(p.Hist(), 0x5000)
	if before.Target != after.Target || before.hitBank != after.hitBank {
		t.Fatal("mutating a snapshot affected the primary history")
	}
}

func TestColdPredictIsUnconfident(t *testing.T) {
	p := New(Config4KB())
	l := p.Predict(p.Hist(), 0xf00)
	if l.Target != 0 || l.Confident {
		t.Fatalf("cold lookup: target=%#x confident=%v", l.Target, l.Confident)
	}
}

func TestStorageBudgets(t *testing.T) {
	big := New(Config64KB())
	small := New(Config4KB())
	if kb := big.StorageKB(); kb < 40 || kb > 80 {
		t.Errorf("64KB config computes %.1fKB", kb)
	}
	if kb := small.StorageKB(); kb < 2 || kb > 6 {
		t.Errorf("4KB config computes %.1fKB", kb)
	}
}

func TestTableLengthsMonotone(t *testing.T) {
	p := New(Config64KB())
	for i := 1; i < len(p.lens); i++ {
		if p.lens[i] <= p.lens[i-1] {
			t.Fatalf("history lengths not increasing: %v", p.lens)
		}
	}
}

func BenchmarkITTAGE(b *testing.B) {
	p := New(Config64KB())
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%61)*4)
		want := uint64(0x8000 + r.Intn(4)*0x40)
		l := p.Predict(p.Hist(), pc)
		p.Update(pc, want, &l)
		p.Hist().Push(pc, want, true)
	}
}

// TestUsefulnessReset: the periodic u-bit decay must halve every
// usefulness counter on the 2^17th update, and not one update earlier.
// Saturate every u, step to just before the tick, then across it;
// entries an update itself trains or allocates are excluded.
func TestUsefulnessReset(t *testing.T) {
	p := New(Config4KB())
	for i := range p.tables {
		for j := range p.tables[i] {
			p.tables[i][j].u = 3
		}
	}
	p.tick = 1<<17 - 2
	touched := map[[2]int]bool{}
	step := func(pc, target uint64) {
		l := p.Predict(p.Hist(), pc)
		p.Update(pc, target, &l)
		p.Hist().Push(pc, target, true)
		for i := range p.tables {
			touched[[2]int{i, int(l.indices[i])}] = true
		}
	}
	check := func(when string, want uint8) {
		t.Helper()
		for i := range p.tables {
			for j, e := range p.tables[i] {
				if !touched[[2]int{i, j}] && e.u != want {
					t.Fatalf("%s: table %d entry %d has u=%d, want %d", when, i, j, e.u, want)
				}
			}
		}
	}
	step(0x1000, 0x9000)
	check("one update before the tick", 3)
	step(0x1040, 0xa000)
	check("at the 2^17 tick", 1)
	if p.tick != 0 {
		t.Fatalf("tick = %d after the decay, want 0", p.tick)
	}
}
