package core

import (
	"ucp/internal/bpred"
	"ucp/internal/btb"
	"ucp/internal/cache"
	"ucp/internal/frontend"
	"ucp/internal/isa"
	"ucp/internal/ittage"
	"ucp/internal/ras"
	"ucp/internal/uopcache"
)

// CodeInfo gives the engine post-decode knowledge of instruction classes
// along prefetched lines, standing in for the alternate decoders'
// inspection of fetched bytes. trace.Program implements it; file-driven
// runs use a learned map.
type CodeInfo interface {
	// ClassAt returns the instruction class at pc (ok=false if pc is
	// outside known code).
	ClassAt(pc uint64) (isa.Class, bool)
}

type fillJob struct {
	spec    uopcache.EntrySpec
	readyAt uint64
}

// Engine is the UCP alternate-path prefetcher (Fig. 8).
type Engine struct {
	cfg Config

	fe   *frontend.Frontend
	btb  btb.TargetBuffer
	uop  *uopcache.UopCache
	mem  *cache.Hierarchy
	code CodeInfo

	altBP      *bpred.TageSCL
	altBPHist  *bpred.Hist // shadow of the demand path
	altHist    *bpred.Hist // alternate-path clone
	altInd     *ittage.Predictor
	altIndWalk ittage.Hist
	altRAS     *ras.Stack

	// Walk state.
	active    bool
	altPC     uint64
	stopCtr   int
	threshold int
	// noBranchCtr is the 6-bit no-branch instruction counter of §IV-E
	// (bounded by cfg.MaxNoBranchInsts, itself capped at 63). nbits:6
	noBranchCtr uint8
	// conflictCtr is the 3-bit BTB-bank starvation counter of §IV-C.
	// nbits:3
	conflictCtr uint8
	pathLines   *lineSet

	// Alt-FTQ of entry specs awaiting µ-op tag check.
	altFTQ  []uopcache.EntrySpec
	ftqHead int
	ftqUsed int

	// In-flight prefetches and entries awaiting the alternate decoders
	// (a ring over a fixed backing array bounded by cfg.AltDecodeQueue).
	mshrCount int
	decodeQ   []fillJob
	dqHead    int
	dqUsed    int

	// Per-cycle scratch, reused so the steady-state walk allocates
	// nothing: the window's instruction metas, the entry specs Split
	// produces from them, and the alternate predictor's output.
	walkMetas   []uopcache.InstMeta
	specScratch []uopcache.EntrySpec
	predScratch bpred.Prediction
	uopCfg      uopcache.Config

	stats Stats
}

// New wires a UCP engine to the shared frontend structures. code may be
// nil only with cfg.TillL1I (no µ-op fill without class knowledge).
func New(cfg Config, fe *frontend.Frontend, code CodeInfo) *Engine {
	e := &Engine{
		cfg:         cfg,
		fe:          fe,
		btb:         fe.BTB,
		uop:         fe.Uop,
		mem:         fe.Mem,
		code:        code,
		altBP:       bpred.NewTageSCL(cfg.AltBP),
		altRAS:      ras.New(cfg.AltRASEntries),
		altFTQ:      make([]uopcache.EntrySpec, cfg.AltFTQEntries),
		pathLines:   newLineSet(64),
		decodeQ:     make([]fillJob, cfg.AltDecodeQueue),
		walkMetas:   make([]uopcache.InstMeta, 0, cfg.WalkWidth),
		specScratch: make([]uopcache.EntrySpec, 0, cfg.WalkWidth),
		uopCfg:      fe.Uop.Config(),
	}
	e.altBPHist = e.altBP.Hist()
	e.altHist = e.altBP.NewHist()
	if cfg.UseAltInd {
		e.altInd = ittage.New(cfg.AltInd)
	}
	return e
}

// Release hands the alternate predictors' tables back to package
// recycle; the engine must not be used afterwards.
func (e *Engine) Release() {
	e.altBP.Release()
	if e.altInd != nil {
		e.altInd.Release()
	}
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// OnCond implements frontend.UCPHook: shadow-train Alt-BP, classify the
// branch, and (re)start the alternate path on H2P (§IV-B).
func (e *Engine) OnCond(pc uint64, p *bpred.Prediction, actualTaken bool, takenTarget uint64, btbHit bool, now uint64) {
	// Alt-BP trains alongside the main predictor (§IV-C).
	ap := &e.predScratch
	e.altBP.PredictInto(ap, e.altBPHist, pc)
	e.altBP.Update(pc, actualTaken, ap)

	if e.cfg.Estimator.H2P(p) {
		e.start(pc, p.Taken, takenTarget, btbHit, now)
	}
	// The demand-path shadow history advances with the main predictor's
	// *prediction* (speculative update; trace-correct except at the
	// mispredicted branch where fetch stalls anyway).
	e.altBPHist.Push(pc, p.Taken)
}

// OnUncond implements frontend.UCPHook: shadow-train Alt-Ind.
func (e *Engine) OnUncond(pc uint64, class isa.Class, target uint64, now uint64) {
	if e.altInd != nil && class.IsIndirect() && class != isa.Return {
		l := e.altInd.Predict(e.altInd.Hist(), pc)
		e.altInd.Update(pc, target, &l)
	}
	if e.altInd != nil {
		e.altInd.Hist().Push(pc, target, true)
	}
}

// OnMispredictResolved implements frontend.UCPHook.
func (e *Engine) OnMispredictResolved(now uint64) {}

// start begins a new alternate path at the opposite of the predicted
// direction. A currently active path is abandoned and the Alt-FTQ
// flushed (§IV-E case 1).
func (e *Engine) start(pc uint64, predTaken bool, takenTarget uint64, btbHit bool, now uint64) {
	var alt uint64
	if predTaken {
		alt = pc + isa.InstBytes // alternate = fall-through
	} else {
		if !btbHit || takenTarget == 0 {
			e.stats.TriggersBlocked++
			return
		}
		alt = takenTarget
	}
	if e.active {
		e.stats.StopNewH2P++
		e.ftqUsed = 0 // flush the Alt-FTQ
		e.ftqHead = 0
	}
	e.stats.Triggers++
	e.active = true
	e.altPC = alt
	e.stopCtr = 0
	e.threshold = e.cfg.StopThreshold
	e.noBranchCtr = 0
	e.conflictCtr = 0
	e.pathLines.Reset()
	// Clone histories at the pre-H2P point and push the opposite
	// direction (§IV-C).
	e.altHist.CopyFrom(e.altBPHist)
	e.altHist.Push(pc, !predTaken)
	if e.altInd != nil {
		e.altIndWalk = *e.altInd.Hist()
		e.altIndWalk.Push(pc, alt, !predTaken)
	}
	e.altRAS.CopyFrom(e.fe.RAS)
}

func (e *Engine) stop(reason *uint64) {
	e.active = false
	*reason++
}

// Cycle advances the engine: one walk window, one Alt-FTQ tag check,
// and the alternate decoders (§IV-C/D).
func (e *Engine) Cycle(now uint64) {
	e.drainDecodeQ(now)
	e.tagCheck(now)
	e.walk(now)
}

// walk advances alternate-path address generation by one prediction
// window, arbitrating BTB banks against the demand path.
func (e *Engine) walk(now uint64) {
	if !e.active {
		return
	}
	if e.ftqUsed+4 > len(e.altFTQ) {
		e.stats.AltFTQFull++
		return // leave room for the specs this window may produce
	}
	// BTB bank arbitration (§IV-C): demand priority with a 3-bit
	// starvation counter.
	if !e.cfg.IdealBTBBanking {
		bank := e.btb.BankOf(e.altPC)
		if e.fe.BTBBankBusy(now, bank) {
			e.stats.BTBConflicts++
			e.conflictCtr++
			if e.conflictCtr < 7 {
				return // delayed this cycle
			}
			// Starved: the alternate path wins, demand retries.
			e.conflictCtr = 0
			e.fe.StealBTBCycle(now)
			e.stats.BTBStolenCycles++
		} else {
			e.conflictCtr = 0
		}
	}

	metas := e.walkMetas[:0]
	pc := e.altPC
	stopped := false
	for i := 0; i < e.cfg.WalkWidth; i++ {
		e.stats.WalkedInsts++
		target, kind, hit := e.btb.Probe(pc)
		class := isa.ALU
		if c, ok := e.classAt(pc); ok {
			class = c
		}
		if !hit {
			// No BTB-known branch here: straight-line code as far as
			// the frontend can tell.
			metas = append(metas, uopcache.InstMeta{PC: pc, Class: class})
			pc += isa.InstBytes
			e.noBranchCtr++
			if int(e.noBranchCtr) >= e.cfg.MaxNoBranchInsts {
				e.flushWindow(metas, now)
				e.stop(&e.stats.StopNoBranch)
				return
			}
			continue
		}
		e.noBranchCtr = 0
		next, taken, w, ok := e.predictAltBranch(pc, target, kind)
		metas = append(metas, uopcache.InstMeta{PC: pc, Class: class, PredTaken: taken})
		if !ok {
			stopped = true
			e.flushWindow(metas, now)
			return // stop reason recorded inside predictAltBranch
		}
		e.stopCtr += w
		if e.stopCtr >= e.threshold {
			e.flushWindow(metas, now)
			e.stop(&e.stats.StopThreshold)
			return
		}
		if taken {
			pc = next
			e.flushWindow(metas, now)
			metas = metas[:0]
			e.altPC = pc
			// A taken branch ends the prediction window.
			break
		}
		pc += isa.InstBytes
	}
	if !stopped {
		e.flushWindow(metas, now)
		e.altPC = pc
	}
}

// predictAltBranch resolves one BTB-known branch on the alternate path,
// returning the successor, whether it is taken, the Table I weight, and
// ok=false when the path must stop.
func (e *Engine) predictAltBranch(pc, target uint64, kind btb.BranchKind) (next uint64, taken bool, weight int, ok bool) {
	switch kind {
	case btb.KindCond:
		ap := &e.predScratch
		e.altBP.PredictInto(ap, e.altHist, pc)
		e.altHist.Push(pc, ap.Taken)
		if e.altInd != nil {
			nt := pc + isa.InstBytes
			if ap.Taken {
				nt = target
			}
			e.altIndWalk.Push(pc, nt, ap.Taken)
		}
		w := condWeight(ap)
		// High-confidence alternate branches extend the budget (§IV-E).
		if !e.cfg.Estimator.H2P(ap) {
			e.threshold++
		}
		if ap.Taken {
			return target, true, w, true
		}
		return pc + isa.InstBytes, false, w, true
	case btb.KindDirect:
		if e.altInd != nil {
			e.altIndWalk.Push(pc, target, true)
		}
		return target, true, 0, true
	case btb.KindReturn:
		t := e.altRAS.Pop()
		if t == 0 {
			e.stop(&e.stats.StopRASEmpty)
			return 0, true, weightReturn, false
		}
		if e.altInd != nil {
			e.altIndWalk.Push(pc, t, true)
		}
		return t, true, weightReturn, true
	default: // indirect jump or call
		if e.altInd == nil {
			e.stop(&e.stats.StopIndirect)
			return 0, true, WeightInfinite, false
		}
		l := e.altInd.Predict(&e.altIndWalk, pc)
		if l.Target == 0 {
			e.stop(&e.stats.StopIndirect)
			return 0, true, WeightInfinite, false
		}
		e.altIndWalk.Push(pc, l.Target, true)
		// Calls seen via the BTB: push a plausible return address.
		if cl, okc := e.classAt(pc); okc && cl.IsCall() {
			e.altRAS.Push(pc + isa.InstBytes)
		}
		return l.Target, true, weightIndirect, true
	}
}

func (e *Engine) classAt(pc uint64) (isa.Class, bool) {
	if e.code == nil {
		return isa.ALU, false
	}
	return e.code.ClassAt(pc)
}

// flushWindow converts a walked instruction run into µ-op entry specs
// and enqueues them on the Alt-FTQ.
func (e *Engine) flushWindow(metas []uopcache.InstMeta, now uint64) {
	if len(metas) == 0 {
		return
	}
	// Direct calls push the alternate RAS as they are walked.
	for i := range metas {
		if metas[i].Class == isa.Call {
			e.altRAS.Push(metas[i].PC + isa.InstBytes)
		}
	}
	specs := uopcache.SplitInto(e.specScratch[:0], metas, e.uopCfg)
	e.specScratch = specs[:0]
	for _, s := range specs {
		if e.ftqUsed == len(e.altFTQ) {
			e.stats.AltFTQFull++
			return
		}
		tail := e.ftqHead + e.ftqUsed
		if tail >= len(e.altFTQ) {
			tail -= len(e.altFTQ)
		}
		e.altFTQ[tail] = s
		e.ftqUsed++
		e.stats.EntriesGenerated++
	}
}

// tagCheck pops the Alt-FTQ head, checks the µ-op cache (demand-priority
// banked tag check), and issues a prefetch on a miss (§IV-D).
func (e *Engine) tagCheck(now uint64) {
	if e.ftqUsed == 0 {
		return
	}
	spec := e.altFTQ[e.ftqHead]
	bank := e.uop.BankOf(spec.StartPC)
	if e.fe.UopBankBusy(now, bank) {
		e.stats.UopBankConflicts++
		return // demand priority; retry next cycle
	}
	e.stats.TagChecks++
	if e.uop.Probe(spec.StartPC) {
		e.stats.TagCheckHits++
		e.popFTQ()
		return
	}
	if !e.cfg.TillL1I && e.mshrCount >= e.cfg.UopMSHRs {
		e.stats.MSHRFull++
		return
	}
	if !e.cfg.TillL1I && e.dqUsed >= e.cfg.AltDecodeQueue {
		e.stats.DecodeQFull++
		return
	}
	line := spec.StartPC &^ (isa.LineBytes - 1)
	done, accepted := e.mem.PrefetchInst(line, now)
	if !accepted {
		e.stats.PrefetchDropped++
		e.popFTQ() // the PQ dropped it; don't spin on the head
		return
	}
	e.stats.PrefetchesIssued++
	if e.pathLines.Add(line) {
		e.stats.LinesPrefetched++
	}
	if e.cfg.TillL1I {
		e.popFTQ()
		return
	}
	e.mshrCount++
	tail := e.dqHead + e.dqUsed
	if tail >= len(e.decodeQ) {
		tail -= len(e.decodeQ)
	}
	e.decodeQ[tail] = fillJob{spec: spec, readyAt: done}
	e.dqUsed++
	e.popFTQ()
}

func (e *Engine) popFTQ() {
	e.ftqHead++
	if e.ftqHead == len(e.altFTQ) {
		e.ftqHead = 0
	}
	e.ftqUsed--
}

// drainDecodeQ runs the alternate decoders: entries whose lines have
// arrived are decoded (AltDecodeWidth µ-ops per cycle) and installed
// into the µ-op cache (§IV-D).
func (e *Engine) drainDecodeQ(now uint64) {
	if e.dqUsed == 0 {
		return
	}
	if e.cfg.SharedDecoders && !e.fe.InStreamMode() {
		return // demand path owns the decoders this cycle
	}
	budget := e.cfg.AltDecodeWidth
	for e.dqUsed > 0 && budget > 0 {
		job := &e.decodeQ[e.dqHead]
		if job.readyAt > now {
			break
		}
		if int(job.spec.Ops) > budget && budget < e.cfg.AltDecodeWidth {
			break // finish this entry next cycle
		}
		budget -= int(job.spec.Ops)
		e.uop.Insert(job.spec.StartPC, job.spec.Ops, job.spec.Branches, job.spec.EndsTaken, true)
		e.stats.FillsInserted++
		e.mshrCount--
		e.dqHead++
		if e.dqHead == len(e.decodeQ) {
			e.dqHead = 0
		}
		e.dqUsed--
	}
}

// StorageKB returns UCP's hardware overhead (§IV-F): Alt-BP, optional
// Alt-Ind, Alt-RAS, Alt-FTQ, µ-op MSHR, L1I PQ share, and the alternate
// decode queue.
func (e *Engine) StorageKB() float64 {
	kb := e.altBP.StorageKB()
	if e.altInd != nil {
		kb += e.altInd.StorageKB()
	}
	kb += float64(e.cfg.AltRASEntries) * 32 / 8 / 1024 // Alt-RAS (0.06KB)
	kb += float64(e.cfg.AltFTQEntries) * 48 / 8 / 1024 // Alt-FTQ (0.14KB)
	kb += 0.25                                         // L1I PQ (§IV-F)
	if !e.cfg.TillL1I {
		kb += float64(e.cfg.UopMSHRs) * 48 / 8 / 1024       // µ-op MSHR (0.19KB)
		kb += float64(e.cfg.AltDecodeQueue) * 30 / 8 / 1024 // decode queue (0.12KB)
	}
	return kb
}
