package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"ucp/internal/isa"
)

func TestSliceSource(t *testing.T) {
	insts := []isa.Inst{{PC: 4}, {PC: 8}, {PC: 12}}
	s := NewSliceSource(insts)
	for i := 0; i < 2; i++ { // two passes, with a Reset in between
		for j, want := range insts {
			in, ok := s.Next()
			if !ok || in.PC != want.PC {
				t.Fatalf("pass %d inst %d: got %#x ok=%v", i, j, in.PC, ok)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatal("expected end of stream")
		}
		s.Reset()
	}
}

func TestLimit(t *testing.T) {
	prog := mustProgram(t, QuickProfiles()[0])
	src := NewLimit(NewWalker(prog), 100)
	n := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("Limit yielded %d, want 100", n)
	}
	src.Reset()
	if _, ok := src.Next(); !ok {
		t.Fatal("Reset did not rewind Limit")
	}
}

func mustProgram(t *testing.T, p Profile) *Program {
	t.Helper()
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBuildProgramRejectsBadProfile(t *testing.T) {
	if _, err := BuildProgram(Profile{Name: "bad"}); err == nil {
		t.Fatal("expected error for empty profile")
	}
	ok, _ := ProfileByName("srv203")
	for name, edit := range map[string]func(p *Profile){
		"huge Funcs":               func(p *Profile) { p.Funcs = 2_000_000_000 },
		"huge AvgFuncInsts":        func(p *Profile) { p.AvgFuncInsts = 1 << 40 },
		"code past the cap":        func(p *Profile) { p.Funcs, p.AvgFuncInsts = maxStaticInsts/24+1, 16 },
		"negative LoopTripMean":    func(p *Profile) { p.LoopTripMean, p.FixedTripFrac = -3, 0.5 },
		"NaN LoopTripMean":         func(p *Profile) { p.LoopTripMean = math.NaN() },
		"huge LoopTripMean":        func(p *Profile) { p.LoopTripMean = 1e12 },
		"negative fraction":        func(p *Profile) { p.StreamFrac = -0.1 },
		"fraction above one":       func(p *Profile) { p.IndirectFrac = 1.5 },
		"NaN fraction":             func(p *Profile) { p.FlatFrac = math.NaN() },
		"negative HistMaskBitsMin": func(p *Profile) { p.HistMaskBitsMin = -1 },
		"HistMaskBitsMax past 31":  func(p *Profile) { p.HistMaskBitsMax = 32 },
		"heap past page numbers":   func(p *Profile) { p.DataWSS = maxDataWSS + 1 },
	} {
		p := ok
		edit(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
		if _, err := BuildProgram(p); err == nil {
			t.Errorf("%s: BuildProgram accepted it", name)
		}
	}
	// The bounds themselves are valid.
	edge := ok
	edge.Funcs, edge.AvgFuncInsts = maxStaticInsts/24, 16
	edge.DataWSS, edge.LoopTripMean = maxDataWSS, maxLoopTripMean
	edge.HistMaskBitsMin, edge.HistMaskBitsMax = 0, maxHistMaskBits
	if err := edge.Validate(); err != nil {
		t.Errorf("edge profile rejected: %v", err)
	}
	for _, p := range append(DefaultProfiles(), QuickProfiles()...) {
		if err := p.Validate(); err != nil {
			t.Errorf("built-in profile rejected: %v", err)
		}
	}
}

// TestProgramFootprint holds the compact image: a 16-byte static
// instruction, code and behaviors without append slack, and one walker
// counter per streaming memory instruction.
func TestProgramFootprint(t *testing.T) {
	if got := unsafe.Sizeof(StaticInst{}); got != 16 {
		t.Fatalf("StaticInst is %d bytes, want 16", got)
	}
	for _, p := range DefaultProfiles() {
		prog := mustProgram(t, p)
		if cap(prog.code) != len(prog.code) || cap(prog.behaviors) != len(prog.behaviors) {
			t.Errorf("%s: code %d/%d, behaviors %d/%d (len/cap)", p.Name,
				len(prog.code), cap(prog.code), len(prog.behaviors), cap(prog.behaviors))
		}
		streams := 0
		for i := range prog.code {
			if prog.code[i].mode == memStream {
				streams++
			}
		}
		if n := len(NewWalker(prog).streamCnt); n != streams || streams == 0 {
			t.Errorf("%s: walker keeps %d counters for %d streaming instructions", p.Name, n, streams)
		}
	}
}

func TestWalkerControlFlowConsistency(t *testing.T) {
	for _, p := range DefaultProfiles() {
		prog := mustProgram(t, p)
		insts := Collect(NewWalker(prog), 50000)
		if len(insts) != 50000 {
			t.Fatalf("%s: walker ended early (%d)", p.Name, len(insts))
		}
		if err := Validate(insts); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestWalkerDeterminism(t *testing.T) {
	p := QuickProfiles()[1]
	prog := mustProgram(t, p)
	a := Collect(NewWalker(prog), 20000)
	b := Collect(NewWalker(prog), 20000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walkers diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Reset must reproduce the stream exactly.
	w := NewWalker(prog)
	_ = Collect(w, 5000)
	w.Reset()
	c := Collect(w, 20000)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("Reset stream diverged at %d", i)
		}
	}
}

func TestWalkerPCsWithinImage(t *testing.T) {
	prog := mustProgram(t, QuickProfiles()[0])
	limit := CodeBase + uint64(len(prog.code))*isa.InstBytes
	w := NewWalker(prog)
	for i := 0; i < 30000; i++ {
		in, _ := w.Next()
		if in.PC < CodeBase || in.PC >= limit {
			t.Fatalf("inst %d PC %#x outside image [%#x,%#x)", i, in.PC, CodeBase, limit)
		}
	}
}

func TestFootprintMatchesProfile(t *testing.T) {
	for _, p := range DefaultProfiles() {
		prog := mustProgram(t, p)
		got := uint64(len(prog.code)) * isa.InstBytes
		want := p.FootprintBytes()
		// The builder targets the profile footprint within a loose band;
		// construct granularity makes it overshoot somewhat.
		if got < want/2 || got > want*3 {
			t.Errorf("%s: footprint %d bytes, profile target %d", p.Name, got, want)
		}
	}
}

func TestBranchMixSane(t *testing.T) {
	for _, p := range DefaultProfiles() {
		prog := mustProgram(t, p)
		insts := Collect(NewWalker(prog), 100000)
		var branches, cond, calls, rets int
		for i := range insts {
			c := insts[i].Class
			if c.IsBranch() {
				branches++
			}
			if c.IsConditional() {
				cond++
			}
			if c.IsCall() {
				calls++
			}
			if c == isa.Return {
				rets++
			}
		}
		bf := float64(branches) / float64(len(insts))
		if bf < 0.05 || bf > 0.40 {
			t.Errorf("%s: branch fraction %.3f outside [0.05,0.40]", p.Name, bf)
		}
		if cond == 0 || calls == 0 || rets == 0 {
			t.Errorf("%s: missing branch classes cond=%d calls=%d rets=%d", p.Name, cond, calls, rets)
		}
		// Calls and returns must roughly balance on a long run.
		if diff := calls - rets; diff < -50 || diff > 50 {
			t.Errorf("%s: call/return imbalance %d", p.Name, diff)
		}
	}
}

func TestH2PBranchesExist(t *testing.T) {
	// A datacenter profile must contain conditional branches that flip
	// directions frequently (the H2P population UCP targets).
	prog := mustProgram(t, QuickProfiles()[3]) // srv206
	insts := Collect(NewWalker(prog), 200000)
	taken := map[uint64][2]int{}
	for i := range insts {
		if insts[i].Class.IsConditional() {
			c := taken[insts[i].PC]
			if insts[i].Taken {
				c[1]++
			} else {
				c[0]++
			}
			taken[insts[i].PC] = c
		}
	}
	noisy := 0
	for _, c := range taken {
		tot := c[0] + c[1]
		if tot < 30 {
			continue
		}
		r := float64(c[1]) / float64(tot)
		if r > 0.2 && r < 0.8 {
			noisy++
		}
	}
	if noisy < 5 {
		t.Fatalf("only %d noisy conditional branch sites; H2P population too small", noisy)
	}
}

func TestMemAddressesWithinWSS(t *testing.T) {
	p := QuickProfiles()[0]
	prog := mustProgram(t, p)
	w := NewWalker(prog)
	for i := 0; i < 50000; i++ {
		in, _ := w.Next()
		if in.Class != isa.Load && in.Class != isa.Store {
			continue
		}
		heap := in.MemAddr >= 1<<32 && in.MemAddr < (1<<32)+p.DataWSS+64*1024
		stack := in.MemAddr >= stackBase
		if !heap && !stack {
			t.Fatalf("mem address %#x outside heap/stack windows", in.MemAddr)
		}
	}
}

func TestReadRejectsCorruptHeader(t *testing.T) {
	if _, err := ReadAny(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	var buf bytes.Buffer
	_ = WriteCompact(&buf, []isa.Inst{{PC: 4}})
	b := buf.Bytes()
	if _, err := ReadAny(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Fatal("expected error for truncated record")
	}
}

func TestValidateCatchesBrokenChain(t *testing.T) {
	good := []isa.Inst{
		{PC: 0x1000, Class: isa.ALU},
		{PC: 0x1004, Class: isa.CondBranch, Taken: true, Target: 0x2000},
		{PC: 0x2000, Class: isa.ALU},
	}
	if err := Validate(good); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	bad := []isa.Inst{
		{PC: 0x1000, Class: isa.ALU},
		{PC: 0x2000, Class: isa.ALU},
	}
	if err := Validate(bad); err == nil {
		t.Fatal("broken chain accepted")
	}
	misaligned := []isa.Inst{{PC: 0x1001, Class: isa.ALU}}
	if err := Validate(misaligned); err == nil {
		t.Fatal("misaligned PC accepted")
	}
	notTakenJump := []isa.Inst{{PC: 0x1000, Class: isa.DirectJump, Taken: false}}
	if err := Validate(notTakenJump); err == nil {
		t.Fatal("not-taken unconditional accepted")
	}
}

func TestValidateProperty(t *testing.T) {
	// Any prefix of a generated stream must validate.
	prog := mustProgram(t, QuickProfiles()[2])
	insts := Collect(NewWalker(prog), 30000)
	if err := quick.Check(func(a, b uint16) bool {
		lo, hi := int(a)%len(insts), int(b)%len(insts)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Validate(insts[lo:hi]) == nil
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("srv203"); !ok {
		t.Fatal("srv203 must exist")
	}
	if _, ok := ProfileByName("nonexistent"); ok {
		t.Fatal("nonexistent profile found")
	}
}

func TestQuickProfiles(t *testing.T) {
	qs := QuickProfiles()
	if len(qs) != 4 {
		t.Fatalf("QuickProfiles returned %d, want 4", len(qs))
	}
}

func BenchmarkWalker(b *testing.B) {
	prog, err := BuildProgram(QuickProfiles()[2])
	if err != nil {
		b.Fatal(err)
	}
	w := NewWalker(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next()
	}
}

// semanticallyEqual compares instructions ignoring the target of
// not-taken branches (not serialized by the compact format; never
// consumed by the simulator).
func semanticallyEqual(a, b isa.Inst) bool {
	if !a.Taken {
		a.Target, b.Target = 0, 0
	}
	return a == b
}

func TestCompactRoundTrip(t *testing.T) {
	for _, p := range QuickProfiles() {
		prog := mustProgram(t, p)
		insts := Collect(NewWalker(prog), 20000)
		var buf bytes.Buffer
		if err := WriteCompact(&buf, insts); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAny(&buf)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(got) != len(insts) {
			t.Fatalf("%s: length %d != %d", p.Name, len(got), len(insts))
		}
		for i := range insts {
			if !semanticallyEqual(got[i], insts[i]) {
				t.Fatalf("%s: record %d: %+v vs %+v", p.Name, i, got[i], insts[i])
			}
		}
	}
}

// TestCompactSmallerThanV1 holds the format to its size budget against
// the retired fixed-width v1 format: a 16-byte header plus 29 bytes per
// record.
func TestCompactSmallerThanV1(t *testing.T) {
	prog := mustProgram(t, QuickProfiles()[2])
	insts := Collect(NewWalker(prog), 50000)
	var v2 bytes.Buffer
	if err := WriteCompact(&v2, insts); err != nil {
		t.Fatal(err)
	}
	v1Len := 16 + 29*len(insts)
	ratio := float64(v2.Len()) / float64(v1Len)
	if ratio > 0.4 {
		t.Fatalf("compact format only %.2fx of v1 (%d vs %d bytes)", ratio, v2.Len(), v1Len)
	}
	t.Logf("compact: %.1f%% of v1 (%.1f bytes/inst)", ratio*100, float64(v2.Len())/float64(len(insts)))
}

func TestCompactRejectsCorruption(t *testing.T) {
	prog := mustProgram(t, QuickProfiles()[0])
	insts := Collect(NewWalker(prog), 100)
	var buf bytes.Buffer
	if err := WriteCompact(&buf, insts); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadAny(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated compact trace accepted")
	}
	// Unsupported version.
	bad := append([]byte(nil), b...)
	bad[4] = 99
	if _, err := ReadAny(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
}
