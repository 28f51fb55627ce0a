package frontend

import (
	"ucp/internal/bpred"
	"ucp/internal/btb"
	"ucp/internal/isa"
)

// generate runs the branch prediction unit: up to WindowsPerCycle fetch
// windows are predicted and enqueued into the FTQ per cycle, stopping at
// mispredicted branches (stall until execute) and decode resteers
// (stall until delivery).
func (f *Frontend) generate(now uint64) {
	if f.paused {
		// Sampled-mode drain: no new windows, and the quiet cycles are
		// not BPU stalls (they fall outside measured windows anyway).
		return
	}
	if f.srcDone || f.waitingFlush || f.waitingDeliver {
		f.stats.BPUStallCycles++
		return
	}
	if now < f.bpuStallUntil {
		f.stats.BPUStallCycles++
		return
	}
	for w := 0; w < f.cfg.WindowsPerCycle; w++ {
		if f.ftqUsed == len(f.ftq) {
			return
		}
		// Build directly into the FTQ tail slot; the entry only becomes
		// visible when pushWindow bumps ftqUsed. This avoids copying the
		// ~900-byte window value twice per window on the hot path.
		tail := f.ftqHead + f.ftqUsed
		if tail >= len(f.ftq) {
			tail -= len(f.ftq)
		}
		win := &f.ftq[tail]
		*win = window{}
		if f.ideal.UopAlwaysHit || f.brCondCredit > 0 {
			win.forceHit = true
		}
		for win.n < f.cfg.WindowInsts {
			in, ok := f.nextInst()
			if !ok {
				f.srcDone = true
				break
			}
			predTaken, mispred, resteer := f.predictBranch(&in, now)
			win.insts[win.n] = windowInst{inst: in, predTaken: predTaken, mispredict: mispred}
			win.n++
			if mispred {
				win.mispredict = true
				f.waitingFlush = true
				break
			}
			if resteer {
				win.resteer = true
				f.waitingDeliver = true
				break
			}
			if in.Class.IsBranch() && predTaken {
				break // the window ends at a predicted-taken branch
			}
		}
		if win.n > 0 {
			f.pushWindow(win, now)
		}
		if win.mispredict || win.resteer || f.srcDone {
			return
		}
	}
}

func (f *Frontend) pushWindow(win *window, now uint64) {
	// Fetch-directed prefetching (§V): the L1I access for an FTQ entry
	// is initiated as soon as the address is generated, so the FTQ
	// run-ahead hides instruction misses. A window whose first entry is
	// already in the µ-op cache will likely be stream-served and skips
	// the L1I (the FTQ "queries either or both" structures, §II).
	if !f.ideal.UopAlwaysHit && !win.forceHit {
		if f.ideal.NoUopCache || !f.Uop.Probe(win.insts[0].inst.PC) {
			firstLine := win.insts[0].inst.LineAddr()
			lastLine := win.insts[win.n-1].inst.LineAddr()
			win.l1iResident = true
			for line := firstLine; ; line += isa.LineBytes {
				resident := f.Mem.L1I.Contains(line)
				if !resident {
					win.l1iResident = false
				}
				if done := f.Mem.FetchInst(line, now); done > win.lineReady {
					win.lineReady = done
				}
				if f.L1IPrefetcher != nil {
					f.L1IPrefetcher.OnFetch(line, resident, now)
				}
				if line >= lastLine {
					break
				}
			}
		} else {
			// Expected to stream from the µ-op cache: if it were not
			// cached there, its line would very likely be L1I-resident.
			win.l1iResident = true
		}
	}
	// win already is the FTQ tail slot (see generate); publish it.
	f.ftqUsed++
	f.stats.Windows++
}

// predictBranch runs the BPU for one instruction: direction prediction,
// target prediction, predictor training, history maintenance, BTB fill,
// H2P classification, and UCP hook dispatch. It returns the direction
// the fetch engine follows, whether the instruction is an
// execute-resolved misprediction, and whether it is a decode-resolved
// resteer.
func (f *Frontend) predictBranch(in *isa.Inst, now uint64) (predTaken, mispred, resteer bool) {
	switch {
	case in.Class == isa.CondBranch:
		f.stats.CondBranches++
		// The Prediction is written into long-lived scratch: passing a
		// stack value's address through the UCPHook interface would force
		// a heap allocation per conditional branch.
		p := &f.predScratch
		f.Pred.PredictInto(p, f.Pred.Hist(), in.PC)
		f.markBanks(now, in.PC)
		target, _, btbHit := f.BTB.Lookup(in.PC)
		miss := p.Taken != in.Taken
		if miss {
			f.stats.CondMispredicts++
			f.stats.Mispredicts++
			if f.ideal.BRCondN > 0 {
				f.brCondCredit = f.ideal.BRCondN
			}
		} else if f.brCondCredit > 0 {
			f.brCondCredit--
		}
		// Confidence classification (both estimators, for Fig. 9/12b).
		f.stats.H2PTage.Record(bpred.TageConfH2P(p), miss)
		f.stats.H2PUCP.Record(bpred.UCPConfH2P(p), miss)
		// Train and advance history with the architectural outcome (the
		// trace-driven equivalent of speculative update + repair).
		f.Pred.Update(in.PC, in.Taken, p)
		f.Pred.PushHistory(in.PC, in.Taken)
		f.Ind.Hist().Push(in.PC, in.NextPC(), in.Taken)
		if in.Taken {
			f.BTB.Insert(in.PC, in.Target, btb.KindCond)
		}
		if f.hook != nil {
			f.hook.OnCond(in.PC, p, in.Taken, target, btbHit, now)
		}
		if miss {
			return p.Taken, true, false
		}
		// Correct direction, but a predicted-taken branch with no BTB
		// target cannot steer fetch until decode computes it.
		if in.Taken && !btbHit {
			f.stats.Resteers++
			return true, false, true
		}
		return in.Taken, false, false

	case in.Class == isa.DirectJump || in.Class == isa.Call:
		f.markBanks(now, in.PC)
		_, _, btbHit := f.BTB.Lookup(in.PC)
		f.BTB.Insert(in.PC, in.Target, btb.KindDirect)
		if in.Class == isa.Call {
			f.RAS.Push(in.PC + isa.InstBytes)
		}
		f.Ind.Hist().Push(in.PC, in.Target, true)
		if f.hook != nil {
			f.hook.OnUncond(in.PC, in.Class, in.Target, now)
		}
		if !btbHit {
			f.stats.Resteers++
			return true, false, true
		}
		return true, false, false

	case in.Class == isa.IndirectJump || in.Class == isa.IndirectCall:
		l := f.Ind.Predict(f.Ind.Hist(), in.PC)
		miss := l.Target != in.Target
		f.Ind.Update(in.PC, in.Target, &l)
		f.markBanks(now, in.PC)
		f.BTB.Insert(in.PC, in.Target, btb.KindIndirect)
		if in.Class == isa.IndirectCall {
			f.RAS.Push(in.PC + isa.InstBytes)
		}
		f.Ind.Hist().Push(in.PC, in.Target, true)
		if f.hook != nil {
			f.hook.OnUncond(in.PC, in.Class, in.Target, now)
		}
		if miss {
			f.stats.Mispredicts++
			return true, true, false
		}
		return true, false, false

	case in.Class == isa.Return:
		predTarget := f.RAS.Pop()
		miss := predTarget != in.Target
		f.markBanks(now, in.PC)
		f.BTB.Insert(in.PC, in.Target, btb.KindReturn)
		f.Ind.Hist().Push(in.PC, in.Target, true)
		if f.hook != nil {
			f.hook.OnUncond(in.PC, in.Class, in.Target, now)
		}
		if miss {
			f.stats.Mispredicts++
			return true, true, false
		}
		return true, false, false

	default:
		return false, false, false
	}
}
