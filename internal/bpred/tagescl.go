package bpred

import "fmt"

// TAGE-SC-L composite: TAGE provides the base prediction, the loop
// predictor overrides for confidently-captured regular loops, and the
// statistical corrector may revert the result. This mirrors the 64KB
// TAGE-SC-L the paper uses as its baseline predictor (Table II) and the
// 8KB version used as UCP's alternate-path predictor (Alt-BP, §IV-C).

// Config sizes a TAGE-SC-L instance.
//
//ucplint:config
type Config struct {
	Tage        TageConfig
	LoopIdxBits int
	SCIdxBits   int
}

// Config64KB approximates the storage budget of the paper's 64KB
// TAGE-SC-L baseline predictor.
func Config64KB() Config {
	return Config{
		Tage: TageConfig{
			BimodalBits: 14, Tables: 12, MinHist: 4, MaxHist: 640,
			IdxBits: 11, TagBase: 8, CtrBits: 3,
		},
		LoopIdxBits: 6,
		SCIdxBits:   11,
	}
}

// Config8KB approximates the 8KB TAGE-SC-L used as UCP's Alt-BP.
func Config8KB() Config {
	return Config{
		Tage: TageConfig{
			BimodalBits: 11, Tables: 10, MinHist: 4, MaxHist: 256,
			IdxBits: 8, TagBase: 8, CtrBits: 3,
		},
		LoopIdxBits: 5,
		SCIdxBits:   8,
	}
}

// Config128KB doubles the baseline budget ("TAGE-SC-Lx2" in Fig. 16).
func Config128KB() Config {
	return Config{
		Tage: TageConfig{
			BimodalBits: 14, Tables: 12, MinHist: 4, MaxHist: 1000,
			IdxBits: 12, TagBase: 9, CtrBits: 3,
		},
		LoopIdxBits: 7,
		SCIdxBits:   12,
	}
}

// Validate rejects TAGE-SC-L geometries the constructors would build
// incorrectly (zero-width tables index nothing; oversized index widths
// explode the modeled budget).
func (c Config) Validate() error {
	if err := c.Tage.Validate(); err != nil {
		return err
	}
	if c.LoopIdxBits <= 0 || c.LoopIdxBits > 20 {
		return fmt.Errorf("bpred: LoopIdxBits must be in [1,20], got %d", c.LoopIdxBits)
	}
	if c.SCIdxBits <= 0 || c.SCIdxBits > 24 {
		return fmt.Errorf("bpred: SCIdxBits must be in [1,24], got %d", c.SCIdxBits)
	}
	return nil
}

// TageSCL is the composed predictor.
type TageSCL struct {
	tage *TAGE
	loop *LoopPredictor
	sc   *SC
	hist *Hist
}

// NewTageSCL constructs the composite from cfg.
func NewTageSCL(cfg Config) *TageSCL {
	t := &TageSCL{
		tage: NewTAGE(cfg.Tage),
		loop: NewLoopPredictor(cfg.LoopIdxBits),
		sc:   NewSC(cfg.SCIdxBits),
	}
	t.hist = t.tage.NewHist()
	return t
}

// Release hands every component's tables back to package recycle; the
// predictor must not be used afterwards.
func (t *TageSCL) Release() {
	t.tage.Release()
	t.loop.Release()
	t.sc.Release()
}

// Hist returns the primary (demand-path) history context.
func (t *TageSCL) Hist() *Hist { return t.hist }

// NewHist returns a fresh compatible history context (all zeros).
func (t *TageSCL) NewHist() *Hist { return t.tage.NewHist() }

// Predict produces the composite prediction for pc under history h.
// Passing a cloned Hist predicts down an alternate path without touching
// demand state; tables are shared in both cases (read-only here).
func (t *TageSCL) Predict(h *Hist, pc uint64) Prediction {
	var p Prediction
	t.PredictInto(&p, h, pc)
	return p
}

// PredictInto is Predict writing into caller-owned storage (see
// TAGE.PredictInto); p is fully overwritten.
func (t *TageSCL) PredictInto(p *Prediction, h *Hist, pc uint64) {
	t.tage.PredictInto(p, h, pc)
	t.loop.predict(pc, p)
	mid := p.TageTaken
	src := p.Source
	if p.loopValid {
		mid = p.loopTaken
		src = SrcLoop
	}
	final := t.sc.compute(pc, h, mid, p)
	if p.SCUsed {
		src = SrcSC
	}
	p.Taken = final
	p.Source = src
}

// Update trains all components with the architectural outcome. The
// caller is responsible for pushing the outcome into history contexts
// (PushHistory) afterwards.
func (t *TageSCL) Update(pc uint64, taken bool, p *Prediction) {
	wrong := p.Taken != taken
	t.loop.update(pc, taken, p, wrong)
	t.sc.update(taken, p)
	t.tage.Update(pc, taken, p)
}

// PushHistory records a branch outcome into the primary history context.
// Conditional branches push their direction; unconditional control flow
// pushes a taken bit so path context is preserved.
func (t *TageSCL) PushHistory(pc uint64, taken bool) {
	t.hist.Push(pc, taken)
}

// StorageBits returns the composite's modeled hardware budget.
func (t *TageSCL) StorageBits() int {
	return t.tage.StorageBits() + t.loop.StorageBits() + t.sc.StorageBits()
}

// StorageKB returns the budget in kilobytes.
func (t *TageSCL) StorageKB() float64 {
	return float64(t.StorageBits()) / 8 / 1024
}
