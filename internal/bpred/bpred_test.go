package bpred

import (
	"testing"
	"testing/quick"

	"ucp/internal/rng"
	"ucp/internal/trace"
)

// runPredictor feeds n conditional-branch outcomes from a generated
// workload through p and returns the misprediction rate.
func runPredictor(t testing.TB, pred *TageSCL, profile string, n int) (missRate float64, stats map[Source][2]uint64) {
	t.Helper()
	prof, ok := trace.ProfileByName(profile)
	if !ok {
		t.Fatalf("no profile %s", profile)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWalker(prog)
	stats = map[Source][2]uint64{}
	var cond, miss int
	for cond < n {
		in, _ := w.Next()
		if !in.Class.IsBranch() {
			continue
		}
		if in.Class.IsConditional() {
			p := pred.Predict(pred.Hist(), in.PC)
			pred.Update(in.PC, in.Taken, &p)
			s := stats[p.Source]
			s[0]++
			if p.Taken != in.Taken {
				s[1]++
				miss++
			}
			stats[p.Source] = s
			cond++
			pred.PushHistory(in.PC, in.Taken)
		}
	}
	return float64(miss) / float64(cond), stats
}

func TestTageLearnsBiasedBranch(t *testing.T) {
	pred := NewTageSCL(Config8KB())
	h := pred.Hist()
	miss := 0
	for i := 0; i < 2000; i++ {
		taken := i%16 != 0 // 94% taken
		p := pred.Predict(h, 0x4000)
		if i > 200 && p.Taken != taken && taken {
			miss++
		}
		pred.Update(0x4000, taken, &p)
		pred.PushHistory(0x4000, taken)
	}
	if miss > 40 {
		t.Fatalf("biased branch mispredicted %d/1800 taken instances", miss)
	}
}

func TestTageLearnsHistoryCorrelation(t *testing.T) {
	// Branch B repeats the outcome of branch A two steps earlier:
	// perfectly predictable from 2 bits of global history.
	pred := NewTageSCL(Config64KB())
	h := pred.Hist()
	r := rng.New(7)
	lastA := false
	miss, total := 0, 0
	for i := 0; i < 8000; i++ {
		a := r.Bool(0.5)
		pa := pred.Predict(h, 0x1000)
		pred.Update(0x1000, a, &pa)
		pred.PushHistory(0x1000, a)

		b := lastA
		pb := pred.Predict(h, 0x2000)
		if i > 2000 {
			total++
			if pb.Taken != b {
				miss++
			}
		}
		pred.Update(0x2000, b, &pb)
		pred.PushHistory(0x2000, b)
		lastA = a
	}
	rate := float64(miss) / float64(total)
	if rate > 0.08 {
		t.Fatalf("history-correlated branch miss rate %.3f, want < 0.08", rate)
	}
}

func TestLoopPredictorLearnsFixedTrips(t *testing.T) {
	lp := NewLoopPredictor(6)
	const trips = 7 // taken 6 times then not-taken, repeatedly
	miss, total := 0, 0
	for iter := 0; iter < 400; iter++ {
		for i := 0; i < trips; i++ {
			taken := i < trips-1
			var p Prediction
			p.loopHit = -1
			lp.predict(0x8000, &p)
			if iter > 100 {
				total++
				if !p.loopValid || p.loopTaken != taken {
					miss++
				}
			}
			// Feed "TAGE mispredicted" so allocation happens early on.
			lp.update(0x8000, taken, &p, !p.loopValid || p.loopTaken != taken)
		}
	}
	if rate := float64(miss) / float64(total); rate > 0.02 {
		t.Fatalf("loop predictor miss rate %.3f on fixed 7-trip loop", rate)
	}
}

func TestCompositeUsesLoopForFixedTrips(t *testing.T) {
	pred := NewTageSCL(Config64KB())
	h := pred.Hist()
	const trips = 23 // beyond most useful TAGE histories at this PC mix
	sawLoop := false
	for iter := 0; iter < 500; iter++ {
		for i := 0; i < trips; i++ {
			taken := i < trips-1
			p := pred.Predict(h, 0xbeef0)
			if iter > 300 && p.Source == SrcLoop {
				sawLoop = true
			}
			pred.Update(0xbeef0, taken, &p)
			pred.PushHistory(0xbeef0, taken)
		}
	}
	if !sawLoop {
		t.Fatal("loop predictor never provided on a fixed 23-trip loop")
	}
}

func TestPredictorAccuracyBands(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	cases := []struct {
		profile  string
		min, max float64
	}{
		{"crypto02", 0.0, 0.035},
		{"int02", 0.01, 0.08},
		{"srv206", 0.03, 0.17},
	}
	for _, tc := range cases {
		pred := NewTageSCL(Config64KB())
		rate, _ := runPredictor(t, pred, tc.profile, 60000)
		if rate < tc.min || rate > tc.max {
			t.Errorf("%s: cond miss rate %.4f outside [%.3f, %.3f]",
				tc.profile, rate, tc.min, tc.max)
		}
	}
}

func TestSmallPredictorWorseThanLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	big := NewTageSCL(Config64KB())
	small := NewTageSCL(Config8KB())
	bigRate, _ := runPredictor(t, big, "srv204", 50000)
	smallRate, _ := runPredictor(t, small, "srv204", 50000)
	if smallRate < bigRate*0.95 {
		t.Fatalf("8KB predictor (%.4f) should not beat 64KB (%.4f)", smallRate, bigRate)
	}
}

func TestProviderTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	pred := NewTageSCL(Config64KB())
	_, stats := runPredictor(t, pred, "srv203", 80000)
	var total uint64
	for _, s := range stats {
		total += s[0]
	}
	hit := stats[SrcHitBank][0]
	if hit == 0 || float64(hit)/float64(total) < 0.3 {
		t.Fatalf("HitBank provides only %d/%d predictions", hit, total)
	}
	for _, src := range []Source{SrcBimodal, SrcAltBank} {
		if stats[src][0] == 0 {
			t.Errorf("source %v never provided", src)
		}
	}
}

func TestConfidenceEstimators(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	prof, _ := trace.ProfileByName("srv205")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWalker(prog)
	pred := NewTageSCL(Config64KB())
	var tageConf, ucpConf H2PStats
	cond := 0
	for cond < 150000 {
		in, _ := w.Next()
		if !in.Class.IsBranch() {
			continue
		}
		if in.Class.IsConditional() {
			p := pred.Predict(pred.Hist(), in.PC)
			miss := p.Taken != in.Taken
			tageConf.Record(TageConfH2P(&p), miss)
			ucpConf.Record(UCPConfH2P(&p), miss)
			pred.Update(in.PC, in.Taken, &p)
			cond++
			pred.PushHistory(in.PC, in.Taken)
		}
	}
	// The paper's central claim for UCP-Conf (Fig. 9): it covers more
	// mispredictions than TAGE-Conf without losing accuracy.
	if ucpConf.Coverage() <= tageConf.Coverage() {
		t.Errorf("UCP-Conf coverage %.3f <= TAGE-Conf %.3f",
			ucpConf.Coverage(), tageConf.Coverage())
	}
	if ucpConf.Coverage() < 0.5 {
		t.Errorf("UCP-Conf coverage %.3f, want >= 0.5", ucpConf.Coverage())
	}
	if ucpConf.Accuracy() < 0.05 {
		t.Errorf("UCP-Conf accuracy %.3f implausibly low", ucpConf.Accuracy())
	}
	t.Logf("TAGE-Conf cov=%.3f acc=%.3f | UCP-Conf cov=%.3f acc=%.3f",
		tageConf.Coverage(), tageConf.Accuracy(), ucpConf.Coverage(), ucpConf.Accuracy())
}

func TestH2PStatsMath(t *testing.T) {
	var s H2PStats
	s.Record(true, true)
	s.Record(true, false)
	s.Record(false, true)
	s.Record(false, false)
	if s.Coverage() != 0.5 {
		t.Fatalf("coverage %v", s.Coverage())
	}
	if s.Accuracy() != 0.5 {
		t.Fatalf("accuracy %v", s.Accuracy())
	}
	var empty H2PStats
	if empty.Coverage() != 0 || empty.Accuracy() != 0 {
		t.Fatal("empty stats must be 0")
	}
}

func TestEstimatorSwitch(t *testing.T) {
	p := &Prediction{Source: SrcSC, TageSource: SrcHitBank, ProviderSat: true}
	if !EstimatorUCPConf.H2P(p) {
		t.Fatal("UCP-Conf must flag SC-provided as H2P")
	}
	if EstimatorTageConf.H2P(p) {
		t.Fatal("TAGE-Conf ignores SC; saturated HitBank is high confidence")
	}
	if EstimatorUCPConf.String() != "UCP-Conf" || EstimatorTageConf.String() != "TAGE-Conf" {
		t.Fatal("estimator names drifted")
	}
}

func TestUCPConfRules(t *testing.T) {
	cases := []struct {
		name string
		p    Prediction
		h2p  bool
	}{
		{"loop high conf", Prediction{Source: SrcLoop, TageSource: SrcHitBank}, false},
		{"sc low conf", Prediction{Source: SrcSC, TageSource: SrcHitBank, ProviderSat: true}, true},
		{"altbank always low", Prediction{Source: SrcAltBank, TageSource: SrcAltBank, ProviderSat: true}, true},
		{"hitbank saturated", Prediction{Source: SrcHitBank, TageSource: SrcHitBank, ProviderSat: true}, false},
		{"hitbank weak", Prediction{Source: SrcHitBank, TageSource: SrcHitBank, ProviderSat: false}, true},
		{"bimodal sat clean", Prediction{Source: SrcBimodal, TageSource: SrcBimodal, ProviderSat: true}, false},
		{"bimodal sat recent miss", Prediction{Source: SrcBimodal, TageSource: SrcBimodal, ProviderSat: true, BimodalRecentMiss: true}, true},
		{"bimodal weak", Prediction{Source: SrcBimodal, TageSource: SrcBimodal, ProviderSat: false}, true},
	}
	for _, tc := range cases {
		if got := UCPConfH2P(&tc.p); got != tc.h2p {
			t.Errorf("%s: UCPConfH2P = %v, want %v", tc.name, got, tc.h2p)
		}
	}
}

func TestHistCloneIndependence(t *testing.T) {
	pred := NewTageSCL(Config8KB())
	h := pred.Hist()
	for i := 0; i < 100; i++ {
		h.Push(uint64(0x1000+i*4), i%3 == 0)
	}
	clone := h.Clone()
	before := pred.Predict(h, 0x5000)
	for i := 0; i < 50; i++ {
		clone.Push(uint64(0x9000+i*4), i%2 == 0)
	}
	after := pred.Predict(h, 0x5000)
	if before.Taken != after.Taken || before.hitBank != after.hitBank {
		t.Fatal("mutating a clone changed primary-history predictions")
	}
	// CopyFrom must resynchronize.
	clone.CopyFrom(h)
	p1 := pred.Predict(clone, 0x5000)
	if p1.hitBank != after.hitBank || p1.Taken != after.Taken {
		t.Fatal("CopyFrom did not resynchronize the context")
	}
}

func TestFoldedHistoryConsistency(t *testing.T) {
	// Property: folding the same bit sequence through two paths (push
	// all at once vs. incrementally interleaved with reads) matches, and
	// folded state is a pure function of the last origLen bits.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		shape := newHistShape([]int{7}, []int{5}, []int{6})
		a, b := newHist(&shape), newHist(&shape)
		// Warm a with random prefix; b gets a different prefix.
		for i := 0; i < 200; i++ {
			a.Push(uint64(i*4), r.Bool(0.5))
		}
		for i := 0; i < 137; i++ {
			b.Push(uint64(i*8), r.Bool(0.5))
		}
		// Now push the same 7 (=origLen) suffix bits into both: folded
		// index state must converge since the window only spans 7 bits.
		for i := 0; i < 7; i++ {
			bit := r.Bool(0.5)
			a.Push(0x100, bit)
			b.Push(0x100, bit)
		}
		return a.folds[0].idx == b.folds[0].idx &&
			a.folds[0].tag1 == b.folds[0].tag1
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageBudgets(t *testing.T) {
	big := NewTageSCL(Config64KB())
	small := NewTageSCL(Config8KB())
	double := NewTageSCL(Config128KB())
	bigKB, smallKB, doubleKB := big.StorageKB(), small.StorageKB(), double.StorageKB()
	if bigKB < 40 || bigKB > 80 {
		t.Errorf("64KB config computes %.1fKB", bigKB)
	}
	if smallKB < 5 || smallKB > 11 {
		t.Errorf("8KB config computes %.1fKB", smallKB)
	}
	if doubleKB < 1.5*bigKB {
		t.Errorf("128KB config (%.1fKB) should be ~2x the 64KB config (%.1fKB)", doubleKB, bigKB)
	}
}

func TestGeometricLens(t *testing.T) {
	lens := geometricLens(TageConfig{Tables: 12, MinHist: 4, MaxHist: 640})
	if lens[0] != 4 || lens[len(lens)-1] != 640 {
		t.Fatalf("endpoint lengths wrong: %v", lens)
	}
	for i := 1; i < len(lens); i++ {
		if lens[i] <= lens[i-1] {
			t.Fatalf("lengths not strictly increasing: %v", lens)
		}
	}
	if lens[len(lens)-1] > maxHistBits {
		t.Fatalf("max length exceeds history ring capacity")
	}
}

func TestDeterministicPredictor(t *testing.T) {
	run := func() []bool {
		pred := NewTageSCL(Config8KB())
		h := pred.Hist()
		r := rng.New(123)
		out := make([]bool, 0, 3000)
		for i := 0; i < 3000; i++ {
			pc := uint64(0x1000 + (i%37)*4)
			taken := r.Bool(0.6)
			p := pred.Predict(h, pc)
			out = append(out, p.Taken)
			pred.Update(pc, taken, &p)
			pred.PushHistory(pc, taken)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic prediction at %d", i)
		}
	}
}

func TestCentreredCounterRanges(t *testing.T) {
	// Property: provider counters stay within the documented Fig. 6a
	// ranges throughout a training run.
	pred := NewTageSCL(Config8KB())
	h := pred.Hist()
	r := rng.New(5)
	for i := 0; i < 20000; i++ {
		pc := uint64(0x1000 + (i%97)*4)
		taken := r.Bool(0.5)
		p := pred.Predict(h, pc)
		switch p.TageSource {
		case SrcBimodal:
			if p.ProviderCtr < -2 || p.ProviderCtr > 1 {
				t.Fatalf("bimodal centered counter %d out of [-2,1]", p.ProviderCtr)
			}
		default:
			if p.ProviderCtr < -4 || p.ProviderCtr > 3 {
				t.Fatalf("tagged centered counter %d out of [-4,3]", p.ProviderCtr)
			}
		}
		pred.Update(pc, taken, &p)
		pred.PushHistory(pc, taken)
	}
}

func BenchmarkTageSCL64KB(b *testing.B) {
	b.ReportAllocs()
	pred := NewTageSCL(Config64KB())
	h := pred.Hist()
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%997)*4)
		taken := r.Bool(0.5)
		p := pred.Predict(h, pc)
		pred.Update(pc, taken, &p)
		pred.PushHistory(pc, taken)
	}
}

func TestJRSLearnsConfidence(t *testing.T) {
	j := NewJRS(10, 8, 12)
	const pc = 0x1000
	// Fresh branches are low confidence.
	if !j.H2P(pc, 0) {
		t.Fatal("cold JRS entry must be low confidence")
	}
	// A long correct streak builds confidence.
	for i := 0; i < 20; i++ {
		j.Update(pc, 0, true)
	}
	if j.H2P(pc, 0) {
		t.Fatal("streak of correct predictions still low confidence")
	}
	// One miss resets.
	j.Update(pc, 0, false)
	if !j.H2P(pc, 0) {
		t.Fatal("resetting counter did not reset")
	}
}

func TestJRSHistoryIndexing(t *testing.T) {
	j := NewJRS(10, 8, 12)
	for i := 0; i < 20; i++ {
		j.Update(0x1000, 0xaa, true)
	}
	if j.H2P(0x1000, 0xaa) {
		t.Fatal("trained context low confidence")
	}
	// A different history context maps to a different counter.
	if !j.H2P(0x1000, 0x55) {
		t.Fatal("untrained context inherited confidence")
	}
}

func TestJRSCoverageAccuracyOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	// JRS must do SOMETHING useful (nonzero coverage and accuracy above
	// the base rate) but the paper expects dedicated small tables to
	// trail the storage-free estimators on datacenter footprints.
	prof, _ := trace.ProfileByName("srv205")
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWalker(prog)
	pred := NewTageSCL(Config64KB())
	jrs := DefaultJRS()
	var jstats, ustats H2PStats
	cond := 0
	for cond < 120000 {
		in, ok := w.Next()
		if !ok {
			break
		}
		if !in.Class.IsConditional() {
			continue
		}
		p := pred.Predict(pred.Hist(), in.PC)
		miss := p.Taken != in.Taken
		ghr := pred.Hist().GHR()
		jstats.Record(jrs.H2P(in.PC, ghr), miss)
		ustats.Record(UCPConfH2P(&p), miss)
		jrs.Update(in.PC, ghr, !miss)
		pred.Update(in.PC, in.Taken, &p)
		pred.PushHistory(in.PC, in.Taken)
		cond++
	}
	if jstats.Coverage() == 0 || jstats.Accuracy() == 0 {
		t.Fatalf("JRS inert: %+v", jstats)
	}
	t.Logf("JRS cov=%.3f acc=%.3f | UCP-Conf cov=%.3f acc=%.3f (0.5KB vs storage-free)",
		jstats.Coverage(), jstats.Accuracy(), ustats.Coverage(), ustats.Accuracy())
}

func TestJRSStorage(t *testing.T) {
	if got := DefaultJRS().StorageBits(); got != 4096 {
		t.Fatalf("JRS storage %d bits, want 4096 (0.5KB)", got)
	}
}

func TestSCCorrectsBiasedTage(t *testing.T) {
	// A branch whose outcome anti-correlates with a specific global
	// history context: the SC's history-indexed counters can catch what
	// a weakly-trained provider misses. We check the SC trains without
	// destabilizing: final accuracy must be high.
	pred := NewTageSCL(Config64KB())
	h := pred.Hist()
	r := rng.New(11)
	miss, total := 0, 0
	for i := 0; i < 12000; i++ {
		ctx := r.Bool(0.5)
		pc0 := uint64(0x9000)
		p0 := pred.Predict(h, pc0)
		pred.Update(pc0, ctx, &p0)
		pred.PushHistory(pc0, ctx)
		// Branch B: outcome == ctx (1-bit correlation).
		pb := pred.Predict(h, 0xa000)
		if i > 4000 {
			total++
			if pb.Taken != ctx {
				miss++
			}
		}
		pred.Update(0xa000, ctx, &pb)
		pred.PushHistory(0xa000, ctx)
	}
	if rate := float64(miss) / float64(total); rate > 0.05 {
		t.Fatalf("correlated branch missed at %.3f with SC active", rate)
	}
}

func TestUsefulnessReset(t *testing.T) {
	// The periodic u-bit decay must halve every usefulness counter on
	// the 2^18th update, and not one update earlier. Saturate every u,
	// step to just before the tick, then across it; entries an update
	// itself trains or allocates are excluded from the check.
	tg := NewTAGE(TageConfig{BimodalBits: 8, Tables: 4, MinHist: 2,
		MaxHist: 16, IdxBits: 6, TagBase: 7, CtrBits: 3})
	h := tg.NewHist()
	for i := range tg.all {
		tg.all[i].u = 3
	}
	tg.tick = 1<<18 - 2
	touched := map[int32]bool{}
	step := func(pc uint64) {
		p := tg.Predict(h, pc)
		tg.Update(pc, true, &p)
		h.Push(pc, true)
		for _, e := range p.indices[:tg.cfg.Tables] {
			touched[e] = true
		}
	}
	check := func(when string, want uint8) {
		t.Helper()
		for i, e := range tg.all {
			if !touched[int32(i)] && e.u != want {
				t.Fatalf("%s: entry %d has u=%d, want %d", when, i, e.u, want)
			}
		}
	}
	step(0x1000)
	check("one update before the tick", 3)
	step(0x1040)
	check("at the 2^18 tick", 1)
	if tg.tick != 0 {
		t.Fatalf("tick = %d after the decay, want 0", tg.tick)
	}
}

func TestPredictionSourceAlwaysValid(t *testing.T) {
	pred := NewTageSCL(Config8KB())
	h := pred.Hist()
	r := rng.New(21)
	for i := 0; i < 30000; i++ {
		pc := uint64(0x1000 + (i%211)*4)
		taken := r.Bool(0.7)
		p := pred.Predict(h, pc)
		if p.Source >= NumSources || p.TageSource > SrcAltBank {
			t.Fatalf("invalid sources %v/%v", p.Source, p.TageSource)
		}
		pred.Update(pc, taken, &p)
		pred.PushHistory(pc, taken)
	}
}

func TestHistPushPure(t *testing.T) {
	// Property: CopyFrom then identical pushes yield identical state.
	pred := NewTageSCL(Config8KB())
	a := pred.Hist()
	r := rng.New(4)
	for i := 0; i < 300; i++ {
		a.Push(uint64(0x1000+i*4), r.Bool(0.5))
	}
	b := pred.NewHist()
	b.CopyFrom(a)
	for i := 0; i < 50; i++ {
		pc := uint64(0x9000 + i*4)
		bit := i%3 == 0
		a.Push(pc, bit)
		b.Push(pc, bit)
	}
	pa := pred.Predict(a, 0x7777c)
	pb := pred.Predict(b, 0x7777c)
	if pa.Taken != pb.Taken || pa.HitBankNum() != pb.HitBankNum() {
		t.Fatal("identical push sequences diverged after CopyFrom")
	}
}
