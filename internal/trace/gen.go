package trace

import (
	"fmt"

	"ucp/internal/isa"
	"ucp/internal/rng"
)

// This file implements the synthetic workload generator that substitutes
// for the proprietary CVP-1 datacenter traces (see DESIGN.md). A Profile
// describes the statistical shape of a workload; BuildProgram lowers it
// to a static code image (a CFG laid out at concrete addresses) and a
// Walker interprets that image to produce an endless, control-flow
// consistent dynamic instruction stream.
//
// The generator controls exactly the properties the paper's evaluation
// depends on:
//   - static code footprint (µ-op cache / L1I / BTB pressure),
//   - hot-vs-flat function reuse (stream length in the µ-op cache),
//   - the conditional-branch difficulty mix (biased, pattern, loop,
//     history-correlated, and genuinely random H2P branches),
//   - indirect-branch target behavior (ITTAGE-learnable or not),
//   - data working-set size and access patterns (backend load latency).

// CodeBase is the address of the first generated instruction.
const CodeBase uint64 = 0x10_0000

// Profile parameterizes a synthetic workload.
type Profile struct {
	// Name identifies the trace (e.g. "srv201").
	Name string
	// Seed makes the workload reproducible.
	Seed uint64

	// Funcs is the number of generated functions; AvgFuncInsts is the
	// mean static size of each. Their product approximates the code
	// footprint in instructions (×4 bytes).
	Funcs        int
	AvgFuncInsts int
	// FlatFrac is the probability that the dispatcher picks a callee
	// uniformly instead of from a Zipf-hot distribution. High values
	// model flat datacenter profiles with huge instruction working sets.
	FlatFrac float64

	// Conditional branch difficulty mix; the four fractions need not sum
	// to one — the remainder is strongly biased branches.
	CondPatternFrac float64 // short repeating patterns (TAGE-easy)
	CondHistoryFrac float64 // correlated with recent global history
	CondRandomFrac  float64 // Bernoulli noise: the H2P population
	RandomTakenP    float64 // taken probability for random branches
	// HistMaskBitsMin/Max bound how many history bits a history-
	// correlated branch XORs together; more bits is harder to learn.
	HistMaskBitsMin, HistMaskBitsMax int

	// LoopTripMean is the mean loop trip count; FixedTripFrac is the
	// fraction of loops with a compile-time-constant trip count (these
	// are what the loop predictor captures).
	LoopTripMean  float64
	FixedTripFrac float64

	// IndirectFrac scales how much indirect control flow (switches and
	// indirect calls) the code contains. IndHistFrac is the fraction of
	// indirect sites whose target correlates with history (ITTAGE-easy).
	IndirectFrac float64
	IndHistFrac  float64

	// DataWSS is the data working-set size in bytes; StreamFrac is the
	// fraction of memory instructions that stream sequentially.
	DataWSS    uint64
	StreamFrac float64

	// LoadFrac and StoreFrac set the memory instruction mix within
	// straight-line code.
	LoadFrac, StoreFrac float64
}

// FootprintBytes returns the approximate static code footprint.
func (p *Profile) FootprintBytes() uint64 {
	return uint64(p.Funcs*p.AvgFuncInsts) * isa.InstBytes
}

// Profile limits (README, "Custom workloads"; DESIGN.md, "Program
// image").
const (
	// maxStaticInsts bounds a generated program's code: 4M
	// instructions (16 MiB of code, 64 MiB of image), 30× the largest
	// built-in profile. Code indices fit 32 bits far beyond it; the cap
	// keeps one submitted profile from exhausting a server's memory.
	maxStaticInsts = 1 << 22
	// maxDataWSS keeps every heap page number within 32 bits.
	maxDataWSS = 1<<(32+pageShift) - heapBase
	// maxHistMaskBits keeps a history branch's mask window (2+2·bits
	// positions) inside the 64-bit global history.
	maxHistMaskBits = 31
	// maxLoopTripMean is the cap on a geometric trip-count draw; a
	// larger mean changes nothing, and trip counts stay int32.
	maxLoopTripMean = 1 << 20
)

// Validate reports whether BuildProgram can generate and encode p: a
// budgeted code size within maxStaticInsts, a data working set whose
// page numbers fit the image, and every fraction and range the
// generator draws from within its domain.
func (p *Profile) Validate() error {
	if p.Funcs < 1 || p.AvgFuncInsts < 16 {
		return fmt.Errorf("trace: profile %q needs Funcs>=1, AvgFuncInsts>=16", p.Name)
	}
	// A function's body budget is below 1.5×AvgFuncInsts.
	if p.Funcs > maxStaticInsts || p.AvgFuncInsts > maxStaticInsts ||
		p.Funcs*(p.AvgFuncInsts+p.AvgFuncInsts/2) > maxStaticInsts {
		return fmt.Errorf("trace: profile %q: Funcs×1.5×AvgFuncInsts (%d×%d) exceeds %d static instructions",
			p.Name, p.Funcs, p.AvgFuncInsts, maxStaticInsts)
	}
	if p.DataWSS > maxDataWSS {
		return fmt.Errorf("trace: profile %q: DataWSS %d exceeds %d", p.Name, p.DataWSS, uint64(maxDataWSS))
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FlatFrac", p.FlatFrac},
		{"CondPatternFrac", p.CondPatternFrac},
		{"CondHistoryFrac", p.CondHistoryFrac},
		{"CondRandomFrac", p.CondRandomFrac},
		{"RandomTakenP", p.RandomTakenP},
		{"FixedTripFrac", p.FixedTripFrac},
		{"IndirectFrac", p.IndirectFrac},
		{"IndHistFrac", p.IndHistFrac},
		{"StreamFrac", p.StreamFrac},
		{"LoadFrac", p.LoadFrac},
		{"StoreFrac", p.StoreFrac},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("trace: profile %q: %s %v outside [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.HistMaskBitsMin < 0 || p.HistMaskBitsMin > maxHistMaskBits ||
		p.HistMaskBitsMax < 0 || p.HistMaskBitsMax > maxHistMaskBits {
		return fmt.Errorf("trace: profile %q: HistMaskBitsMin/Max %d/%d outside [0,%d]",
			p.Name, p.HistMaskBitsMin, p.HistMaskBitsMax, maxHistMaskBits)
	}
	if !(p.LoopTripMean >= 0 && p.LoopTripMean <= maxLoopTripMean) {
		return fmt.Errorf("trace: profile %q: LoopTripMean %v outside [0,%d]", p.Name, p.LoopTripMean, maxLoopTripMean)
	}
	return nil
}

type behaviorKind uint8

const (
	bBiased behaviorKind = iota
	bPattern
	bHistory
	bRandom
	bLoop
	bIndirect
)

// behavior is the build-time description of a branch site's dynamic
// policy. Runtime state lives in the Walker so Programs are immutable
// and shareable. Fields are ordered widest first so the struct packs.
type behavior struct {
	// p is the taken probability for biased/random branches.
	p float64
	// pattern/period drive bPattern.
	pattern uint64
	// histMask selects the global-history bits whose parity decides a
	// bHistory branch; histPhase inverts the outcome.
	histMask uint64
	// Loop trip behavior: tripFixed > 0 means a constant trip count;
	// otherwise tripRange > 0 samples uniformly in
	// [tripBase, tripBase+tripRange) (low-variance, partially
	// predictable), and failing both, trips are geometric with mean
	// tripMean (high-variance, an organic H2P source).
	tripMean float64
	// cases are indirect targets; caseHist selects history-correlated
	// target choice, caseFlat the probability of a uniform (vs Zipf)
	// random pick.
	cases     []uint64
	caseFlat  float64
	tripFixed int32
	tripBase  int32
	tripRange int32
	kind      behaviorKind
	period    uint8
	histPhase bool
	caseHist  bool
}

type memMode uint8

const (
	memNone memMode = iota
	memStream
	memRandom
	memStack
)

// StaticInst is one instruction of the generated code image, packed
// into 16 bytes (DESIGN.md, "Program image"). The two 32-bit operands
// mean what the class says:
//   - a direct branch (conditional, jump, call) keeps its target's code
//     index in a; a conditional or indirect branch keeps its behavior
//     index in b; a return has neither;
//   - a load or store keeps its base as a 4 KiB page number in a, and a
//     streaming one its walker counter slot in b. The span follows from
//     the mode: a stack frame is stackSpan bytes, a heap access covers
//     the program's region.
type StaticInst struct {
	Class           isa.Class
	mode            memMode
	stride          uint8 // streaming stride in bytes: 8, 16 or 32
	Dst, Src1, Src2 uint8
	a, b            uint32
}

// Program image encoding: page numbers and code indices are 32 bits.
const (
	pageShift = 12
	// stackSpan is the byte span of every stack-frame access.
	stackSpan = 256
)

// targetPC returns a direct branch's target address.
func (si *StaticInst) targetPC() uint64 { return pcOf(si.a) }

// base returns a memory instruction's base address.
func (si *StaticInst) base() uint64 { return uint64(si.a) << pageShift }

// pcOf returns the address of code index i.
func pcOf(i uint32) uint64 { return CodeBase + uint64(i)*isa.InstBytes }

// hasBehavior reports whether instructions of class c index a behavior.
func hasBehavior(c isa.Class) bool {
	return c == isa.CondBranch || c == isa.IndirectJump || c == isa.IndirectCall
}

// Program is an immutable generated code image.
type Program struct {
	Profile Profile
	code    []StaticInst
	// Entry is the dispatcher address where execution starts.
	Entry     uint64
	behaviors []behavior
	// regionMask is the span of every heap access less one. A region
	// is 4 or 16 KiB, a power of two, so the walker reduces offsets by
	// masking, which yields exactly what a modulo would. streams counts
	// the streaming memory instructions, one walker counter each.
	regionMask uint64
	streams    int
}

// StaticInsts returns the number of generated static instructions.
func (p *Program) StaticInsts() int { return len(p.code) }

// asm accumulates code during program construction.
type asm struct {
	prof      *Profile
	r         *rng.Rand
	code      []StaticInst
	behaviors []behavior
	regions   int
	regionSz  uint64
	streams   int
}

// at returns the code index of the next emitted instruction.
func (a *asm) at() uint32 { return uint32(len(a.code)) }

func (a *asm) pc() uint64 { return pcOf(a.at()) }

func (a *asm) emit(si StaticInst) int {
	a.code = append(a.code, si)
	return len(a.code) - 1
}

func (a *asm) addBehavior(b behavior) uint32 {
	a.behaviors = append(a.behaviors, b)
	return uint32(len(a.behaviors) - 1)
}

// reg returns a random architectural register in [1, isa.RegCount).
func (a *asm) reg() uint8 { return uint8(1 + a.r.Intn(isa.RegCount-1)) }

// straight emits n non-branch instructions with the profile's class mix.
func (a *asm) straight(n int, fnStack uint64) {
	for i := 0; i < n; i++ {
		si := StaticInst{Dst: a.reg(), Src1: a.reg(), Src2: a.reg()}
		u := a.r.Float64()
		switch {
		case u < a.prof.LoadFrac:
			si.Class = isa.Load
			a.assignMem(&si, fnStack)
		case u < a.prof.LoadFrac+a.prof.StoreFrac:
			si.Class = isa.Store
			si.Dst = 0
			a.assignMem(&si, fnStack)
		case u < a.prof.LoadFrac+a.prof.StoreFrac+0.04:
			si.Class = isa.Mul
		case u < a.prof.LoadFrac+a.prof.StoreFrac+0.08:
			si.Class = isa.FP
		default:
			si.Class = isa.ALU
		}
		a.emit(si)
	}
}

func (a *asm) assignMem(si *StaticInst, fnStack uint64) {
	u := a.r.Float64()
	switch {
	case u < 0.25:
		// Stack accesses: tiny hot region, nearly always cache hits.
		si.mode = memStack
		si.a = uint32(fnStack >> pageShift)
	case u < 0.25+a.prof.StreamFrac:
		si.mode = memStream
		si.a = a.heapPage()
		si.stride = uint8(8 << a.r.Intn(3)) // 8/16/32-byte strides
		si.b = uint32(a.streams)
		a.streams++
	default:
		si.mode = memRandom
		si.a = a.heapPage()
	}
}

// heapPage draws a heap region and returns its base page number.
func (a *asm) heapPage() uint32 {
	return uint32((heapBase + uint64(a.r.Intn(a.regions))*a.regionSz) >> pageShift)
}

// condBehavior samples a conditional branch policy from the profile mix.
func (a *asm) condBehavior() behavior {
	p := a.prof
	u := a.r.Float64()
	switch {
	case u < p.CondRandomFrac:
		// The H2P population: irreducibly noisy outcomes. RandomTakenP
		// is the site's target miss level (the best any predictor can
		// do); the taken bias lands on either side of 0.5.
		level := p.RandomTakenP + (a.r.Float64()-0.5)*0.2
		if level < 0.05 {
			level = 0.05
		}
		if level > 0.5 {
			level = 0.5
		}
		pr := level
		if a.r.Bool(0.5) {
			pr = 1 - level
		}
		return behavior{kind: bRandom, p: pr}
	case u < p.CondRandomFrac+p.CondPatternFrac:
		// Short-period execution-count patterns. Their learnability
		// depends on how stable the surrounding history context is, so
		// they naturally populate the medium-confidence classes.
		period := uint8(2 + a.r.Intn(2))
		return behavior{
			kind:    bPattern,
			pattern: a.r.Uint64(),
			period:  period,
		}
	case u < p.CondRandomFrac+p.CondPatternFrac+p.CondHistoryFrac:
		// Outcome = parity of `bits` recent global-history bits chosen
		// within a window that grows with bits: small selections are
		// TAGE-learnable, larger ones are progressively harder (they
		// populate the weak-counter / AltBank confidence classes).
		bits := p.HistMaskBitsMin
		if p.HistMaskBitsMax > bits {
			bits += a.r.Intn(p.HistMaskBitsMax - p.HistMaskBitsMin + 1)
		}
		if bits < 1 {
			bits = 1
		}
		window := 2 + 2*bits
		var mask uint64
		for i := 0; i < bits; i++ {
			mask |= 1 << uint(a.r.Intn(window))
		}
		return behavior{kind: bHistory, histMask: mask, histPhase: a.r.Bool(0.5)}
	default:
		// Strongly biased branches: error-check/guard style code that
		// almost always goes one way. The quartic skew keeps the mean
		// residual noise around 0.5%, as in well-predicted real code.
		n := a.r.Float64()
		pr := 0.001 + 0.02*n*n*n*n
		if a.r.Bool(0.5) {
			pr = 1 - pr
		}
		return behavior{kind: bBiased, p: pr}
	}
}

// buildBody emits roughly budget instructions of structured code and
// returns the number actually emitted. Calls are NOT emitted here — they
// are placed explicitly by BuildProgram so that the expected number of
// dynamic calls per function invocation stays below one (a subcritical
// call tree); otherwise execution gets trapped in enormous call trees and
// the footprint-cycling behavior of datacenter traces is lost. inLoop
// suppresses nested loops so loop bodies do not amplify unboundedly.
func (a *asm) buildBody(budget, depth int, fnStack uint64, inLoop bool) int {
	emitted := 0
	for emitted < budget {
		u := a.r.Float64()
		var construct int
		switch {
		case u < 0.38:
			construct = 0 // straight
		case u < 0.82:
			construct = 1 // if/else
		case u < 0.90:
			construct = 2 // loop
		case u < 0.90+0.10*a.prof.IndirectFrac*4:
			construct = 3 // switch
		default:
			construct = 0
		}
		if inLoop && construct == 2 {
			construct = 0
		}
		switch construct {
		case 0:
			n := 1 + a.r.Geometric(3)
			a.straight(n, fnStack)
			emitted += n
		case 1:
			emitted += a.buildIf(depth, fnStack, inLoop)
		case 2:
			emitted += a.buildLoop(depth, fnStack)
		case 3:
			emitted += a.buildSwitch(fnStack)
		}
	}
	return emitted
}

// buildIf lays out: cond-branch(to else), then-code, jump(end), else-code.
// The conditional branch taken direction goes to the else label.
func (a *asm) buildIf(depth int, fnStack uint64, inLoop bool) int {
	start := len(a.code)
	bi := a.addBehavior(a.condBehavior())
	condIdx := a.emit(StaticInst{Class: isa.CondBranch, b: bi, Src1: a.reg()})
	thenN := 1 + a.r.Geometric(4)
	if depth < 3 && a.r.Bool(0.3) {
		a.buildBody(thenN, depth+1, fnStack, inLoop)
	} else {
		a.straight(thenN, fnStack)
	}
	jmpIdx := a.emit(StaticInst{Class: isa.DirectJump})
	a.code[condIdx].a = a.at()
	elseN := 1 + a.r.Geometric(3)
	a.straight(elseN, fnStack)
	a.code[jmpIdx].a = a.at()
	return len(a.code) - start
}

// buildLoop lays out a do-while loop: body, cond-branch(back to top).
// Taken means "iterate again".
func (a *asm) buildLoop(depth int, fnStack uint64) int {
	start := len(a.code)
	top := a.at()
	bodyN := 2 + a.r.Geometric(4)
	if depth < 3 && a.r.Bool(0.35) {
		a.buildBody(bodyN, depth+1, fnStack, true)
	} else {
		a.straight(bodyN, fnStack)
	}
	b := behavior{kind: bLoop, tripMean: a.prof.LoopTripMean}
	switch {
	case a.r.Bool(a.prof.FixedTripFrac):
		b.tripFixed = int32(2 + a.r.Intn(int(a.prof.LoopTripMean*2)+1))
	case a.r.Bool(0.85):
		base := int32(a.prof.LoopTripMean) - 1
		if base < 2 {
			base = 2
		}
		b.tripBase, b.tripRange = base, 3
	}
	bi := a.addBehavior(b)
	a.emit(StaticInst{Class: isa.CondBranch, a: top, b: bi, Src1: a.reg()})
	return len(a.code) - start
}

// buildSwitch lays out an indirect jump over 2..6 cases.
func (a *asm) buildSwitch(fnStack uint64) int {
	start := len(a.code)
	n := 2 + a.r.Intn(5)
	bi := a.addBehavior(behavior{
		kind:     bIndirect,
		caseHist: a.r.Bool(a.prof.IndHistFrac),
	})
	a.emit(StaticInst{Class: isa.IndirectJump, b: bi, Src1: a.reg()})
	var jmps []int
	cases := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		cases = append(cases, a.pc())
		a.straight(1+a.r.Geometric(3), fnStack)
		jmps = append(jmps, a.emit(StaticInst{Class: isa.DirectJump}))
	}
	end := a.at()
	for _, j := range jmps {
		a.code[j].a = end
	}
	a.behaviors[bi].cases = cases
	return len(a.code) - start
}

// buildCall emits either a direct call to one callee or an indirect call
// over a few callees.
func (a *asm) buildCall(callees []uint64) int {
	start := len(a.code)
	if a.r.Bool(a.prof.IndirectFrac) && len(callees) >= 2 {
		k := 2 + a.r.Intn(min(3, len(callees)-1))
		cs := make([]uint64, 0, k)
		for i := 0; i < k; i++ {
			cs = append(cs, callees[a.r.Intn(len(callees))])
		}
		bi := a.addBehavior(behavior{
			kind:     bIndirect,
			cases:    cs,
			caseHist: a.r.Bool(a.prof.IndHistFrac),
		})
		a.emit(StaticInst{Class: isa.IndirectCall, b: bi, Src1: a.reg()})
	} else {
		t := callees[a.r.Zipf(len(callees))]
		a.emit(StaticInst{Class: isa.Call, a: uint32((t - CodeBase) / isa.InstBytes)})
	}
	return len(a.code) - start
}

// Heap regions start at heapBase; per-function stack frames live one
// page each from stackBase. Both are page-aligned, so the image stores
// every base as a page number.
const (
	heapBase  uint64 = 1 << 32
	stackBase uint64 = 1 << 40
)

// BuildProgram lowers a profile to a concrete code image. It rejects a
// profile that fails Validate.
func BuildProgram(prof Profile) (*Program, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(prof.Seed)
	a := &asm{prof: &prof, r: r, regionSz: 16 * 1024}
	if prof.DataWSS < a.regionSz {
		a.regionSz = 4096
	}
	a.regions = int(prof.DataWSS / a.regionSz)
	if a.regions < 1 {
		a.regions = 1
	}

	// Build functions back to front so function i can call j > i,
	// keeping the call graph a DAG (no unbounded recursion): function
	// N-1 lands at CodeBase and lower-index functions at higher
	// addresses.
	funcAddrs := make([]uint64, prof.Funcs)
	for i := prof.Funcs - 1; i >= 0; i-- {
		funcAddrs[i] = a.pc()
		fnStack := stackBase + uint64(i)*4096
		// Callees are the next few functions (already emitted, since we
		// build back to front); a narrow fan-out keeps call trees local
		// so a dispatcher pick touches a small contiguous code cluster.
		callees := funcAddrs[i+1:]
		if len(callees) > 12 {
			callees = callees[:12]
		}
		budget := prof.AvgFuncInsts/2 + a.r.Intn(prof.AvgFuncInsts)
		// Call sites per function: 0 (45%), 1 (35%), or 2 (20%) —
		// expected 0.75 dynamic calls per invocation keeps call trees
		// finite (mean tree size 4 invocations).
		nCalls := 0
		switch u := a.r.Float64(); {
		case u < 0.45:
		case u < 0.80:
			nCalls = 1
		default:
			nCalls = 2
		}
		if len(callees) == 0 {
			nCalls = 0
		}
		a.straight(3+a.r.Intn(4), fnStack)
		seg := budget / (nCalls + 1)
		for s := 0; s <= nCalls; s++ {
			a.buildBody(seg, 0, fnStack, false)
			if s < nCalls {
				a.buildCall(callees)
			}
		}
		a.emit(StaticInst{Class: isa.Return})
		// Validate bounds the budgeted size; construct overshoot could
		// still carry the code past the cap.
		if len(a.code) > maxStaticInsts {
			return nil, fmt.Errorf("trace: profile %q generated more than %d static instructions", prof.Name, maxStaticInsts)
		}
	}

	// Dispatcher: an endless loop indirectly calling top-level functions.
	entry := a.at()
	dispStack := stackBase + uint64(prof.Funcs)*4096
	a.straight(3, dispStack)
	bi := a.addBehavior(behavior{
		kind:     bIndirect,
		cases:    funcAddrs,
		caseFlat: prof.FlatFrac,
	})
	a.emit(StaticInst{Class: isa.IndirectCall, b: bi, Src1: a.reg()})
	a.straight(2, dispStack)
	a.emit(StaticInst{Class: isa.DirectJump, a: entry})

	// Copy out of the append slack: the image lives as long as the
	// program is cached.
	return &Program{
		Profile:    prof,
		code:       append(make([]StaticInst, 0, len(a.code)), a.code...),
		Entry:      pcOf(entry),
		behaviors:  append(make([]behavior, 0, len(a.behaviors)), a.behaviors...),
		regionMask: a.regionSz - 1,
		streams:    a.streams,
	}, nil
}

// branchState is the per-site runtime state owned by a Walker.
type branchState struct {
	idx   uint32
	trips int32
}

// Walker interprets a Program, producing an endless instruction stream.
// It implements Source (Next never returns ok=false; wrap in a Limit).
type Walker struct {
	prog  *Program
	r     *rng.Rand
	pc    uint64
	stack []uint64
	ghist uint64
	st    []branchState
	// streamCnt holds one access counter per streaming memory
	// instruction, indexed by its slot.
	streamCnt []uint32
}

// NewWalker returns a fresh interpreter over prog.
func NewWalker(prog *Program) *Walker {
	w := &Walker{prog: prog}
	w.Reset()
	return w
}

// Reset implements Source.
func (w *Walker) Reset() {
	w.r = rng.New(w.prog.Profile.Seed ^ 0xdeadbeefcafe)
	w.pc = w.prog.Entry
	w.stack = w.stack[:0]
	w.ghist = 0
	if w.st == nil {
		w.st = make([]branchState, len(w.prog.behaviors))
		w.streamCnt = make([]uint32, w.prog.streams)
	} else {
		clear(w.st)
		clear(w.streamCnt)
	}
}

// parity returns 1-bit parity of x.
func parity(x uint64) bool {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x&1 != 0
}

func mixHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Next implements Source.
func (w *Walker) Next() (isa.Inst, bool) {
	si := &w.prog.code[(w.pc-CodeBase)/isa.InstBytes]
	in := isa.Inst{
		PC:    w.pc,
		Class: si.Class,
		Dst:   si.Dst,
		Src1:  si.Src1,
		Src2:  si.Src2,
	}
	switch si.Class {
	case isa.CondBranch:
		taken := w.evalCond(&w.prog.behaviors[si.b], &w.st[si.b])
		in.Taken = taken
		in.Target = si.targetPC()
		w.ghist = w.ghist<<1 | b2u(taken)
	case isa.DirectJump:
		in.Taken = true
		in.Target = si.targetPC()
	case isa.Call:
		in.Taken = true
		in.Target = si.targetPC()
		w.stack = append(w.stack, w.pc+isa.InstBytes)
	case isa.IndirectJump, isa.IndirectCall:
		b := &w.prog.behaviors[si.b]
		in.Taken = true
		in.Target = w.evalIndirect(b)
		if si.Class == isa.IndirectCall {
			w.stack = append(w.stack, w.pc+isa.InstBytes)
		}
	case isa.Return:
		in.Taken = true
		if n := len(w.stack); n > 0 {
			in.Target = w.stack[n-1]
			w.stack = w.stack[:n-1]
		} else {
			// Defensive: a return with an empty stack restarts the
			// dispatcher. Generated programs never hit this.
			in.Target = w.prog.Entry
		}
	case isa.Load, isa.Store:
		in.MemAddr = w.memAddr(si)
	}
	w.pc = in.NextPC()
	return in, true
}

// NextBatch implements BatchSource. The stream is endless, so the whole
// of dst is always filled.
func (w *Walker) NextBatch(dst []isa.Inst) int {
	for i := range dst {
		dst[i], _ = w.Next()
	}
	return len(dst)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (w *Walker) evalCond(b *behavior, st *branchState) bool {
	switch b.kind {
	case bBiased, bRandom:
		return w.r.Bool(b.p)
	case bPattern:
		bit := b.pattern>>(st.idx%uint32(b.period))&1 != 0
		st.idx++
		return bit
	case bHistory:
		return parity(w.ghist&b.histMask) != b.histPhase
	case bLoop:
		if st.trips <= 0 {
			switch {
			case b.tripFixed > 0:
				st.trips = b.tripFixed
			case b.tripRange > 0:
				st.trips = b.tripBase + int32(w.r.Intn(int(b.tripRange)))
			default:
				st.trips = int32(w.r.Geometric(b.tripMean))
			}
		}
		st.trips--
		return st.trips > 0
	default:
		return false
	}
}

func (w *Walker) evalIndirect(b *behavior) uint64 {
	n := len(b.cases)
	if n == 1 {
		return b.cases[0]
	}
	var i int
	switch {
	case b.caseHist:
		i = int(mixHash(w.ghist) % uint64(n))
	case b.caseFlat > 0 && w.r.Bool(b.caseFlat):
		i = w.r.Intn(n)
	default:
		i = w.r.Zipf(n)
	}
	return b.cases[i]
}

func (w *Walker) memAddr(si *StaticInst) uint64 {
	switch si.mode {
	case memStream:
		cnt := w.streamCnt[si.b]
		w.streamCnt[si.b]++
		off := (uint64(cnt) * uint64(si.stride)) & w.prog.regionMask
		return si.base() + off
	case memRandom:
		return si.base() + (w.r.Uint64()&w.prog.regionMask)&^7
	case memStack:
		return si.base() + (w.r.Uint64n(stackSpan) &^ 7)
	default:
		return 0
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BehaviorDescAt returns a debug description of the branch behavior at
// pc ("biased p=0.98", "pattern period=3", ...). It returns "" for
// non-branch or behavior-free instructions. Intended for tests and
// workload diagnostics.
func (p *Program) BehaviorDescAt(pc uint64) string {
	idx := int((pc - CodeBase) / isa.InstBytes)
	if idx < 0 || idx >= len(p.code) || !hasBehavior(p.code[idx].Class) {
		return ""
	}
	b := &p.behaviors[p.code[idx].b]
	switch b.kind {
	case bBiased:
		return fmt.Sprintf("biased p=%.3f", b.p)
	case bPattern:
		return fmt.Sprintf("pattern period=%d", b.period)
	case bHistory:
		return fmt.Sprintf("history mask=%#x", b.histMask)
	case bRandom:
		return fmt.Sprintf("random p=%.3f", b.p)
	case bLoop:
		return fmt.Sprintf("loop fixed=%d mean=%.1f", b.tripFixed, b.tripMean)
	case bIndirect:
		return fmt.Sprintf("indirect cases=%d hist=%v", len(b.cases), b.caseHist)
	}
	return "?"
}

// ClassAt returns the instruction class at pc. It implements the
// simulator's CodeInfo interface (post-decode class knowledge for UCP's
// alternate fill path).
func (p *Program) ClassAt(pc uint64) (isa.Class, bool) {
	idx := int((pc - CodeBase) / isa.InstBytes)
	if pc < CodeBase || idx >= len(p.code) || pc%isa.InstBytes != 0 {
		return isa.ALU, false
	}
	return p.code[idx].Class, true
}
