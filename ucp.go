// Package ucp is a from-scratch Go reproduction of "Alternate Path µ-op
// Cache Prefetching" (Singh, Perais, Jimborean, Ros — ISCA 2024): a
// cycle-approximate CPU frontend/backend simulator with a µ-op cache,
// TAGE-SC-L and ITTAGE predictors, a banked BTB, a decoupled fetch
// engine, standalone L1I prefetcher baselines, and the paper's UCP
// alternate-path prefetcher, driven by synthetic datacenter-style
// workloads that substitute for the proprietary CVP-1 traces.
//
// Quick start:
//
//	profile, _ := ucp.ProfileByName("srv203")
//	base, _ := ucp.RunProfile(ucp.Baseline(), profile)
//	fast, _ := ucp.RunProfile(ucp.WithUCP(ucp.DefaultUCP()), profile)
//	fmt.Printf("UCP speedup: %+.2f%%\n", 100*(fast.IPC/base.IPC-1))
//
// The experiment harness regenerates every table and figure of the
// paper's evaluation; see cmd/experiments and DESIGN.md.
package ucp

import (
	"io"

	"ucp/internal/bpred"
	"ucp/internal/core"
	"ucp/internal/frontend"
	"ucp/internal/harness"
	"ucp/internal/isa"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// Core model types, exposed for configuration and inspection.
type (
	// Config describes one simulated machine (Table II + variant knobs).
	Config = sim.Config
	// Result carries the measured metrics of one run.
	Result = sim.Result
	// UCPConfig selects and sizes a UCP variant (§IV).
	UCPConfig = core.Config
	// UCPStats aggregates UCP engine counters.
	UCPStats = core.Stats
	// FrontendConfig sizes the decoupled frontend.
	FrontendConfig = frontend.Config
	// Ideal selects the paper's idealized study modes (§III).
	Ideal = frontend.Ideal
	// PredictorConfig sizes a TAGE-SC-L instance.
	PredictorConfig = bpred.Config
	// Estimator selects the H2P confidence heuristic.
	Estimator = bpred.Estimator

	// Profile parameterizes a synthetic workload.
	Profile = trace.Profile
	// Program is a generated code image.
	Program = trace.Program
	// Source streams dynamic instructions into the simulator.
	Source = trace.Source
	// Inst is one dynamic architectural instruction.
	Inst = isa.Inst

	// ExperimentOptions controls a harness sweep.
	ExperimentOptions = harness.Options
	// Experiments runs and caches the paper's figure/table experiments.
	Experiments = harness.Runner

	// SamplingConfig configures the sampled simulation mode (functional
	// fast-forward between detailed measurement windows).
	SamplingConfig = sim.SamplingConfig
	// SampledStats reports a sampled run's controller and estimator
	// bookkeeping (Result.Sampled, nil on full-detail runs).
	SampledStats = sim.SampledStats
)

// H2P estimator selectors (Fig. 12b).
const (
	EstimatorUCPConf  = bpred.EstimatorUCPConf
	EstimatorTageConf = bpred.EstimatorTageConf
)

// Baseline returns the Table II machine configuration.
func Baseline() Config { return sim.Baseline() }

// WithUCP returns the baseline augmented with a UCP engine.
func WithUCP(u UCPConfig) Config { return sim.WithUCP(u) }

// DefaultUCP is the paper's main proposal (Alt-Ind, UCP-Conf,
// threshold 500; 12.95KB).
func DefaultUCP() UCPConfig { return core.DefaultConfig() }

// NoIndUCP is UCP without the dedicated indirect predictor (8.95KB).
func NoIndUCP() UCPConfig { return core.NoIndConfig() }

// ConservativeSampling is the workload-agnostic sampled-mode geometry
// (unbounded warming; ~3-6× at <2% IPC error).
func ConservativeSampling() SamplingConfig { return sim.ConservativeSampling() }

// FastSampling is the bounded-horizon sampled-mode geometry for
// small-footprint traces (≥10× on the crypto profiles; see
// EXPERIMENTS.md for when NOT to use it).
func FastSampling() SamplingConfig { return sim.FastSampling() }

// DefaultProfiles returns the standard synthetic workload set standing
// in for the paper's CVP-1 trace subset.
func DefaultProfiles() []Profile { return trace.DefaultProfiles() }

// QuickProfiles returns a reduced 4-trace set for fast runs.
func QuickProfiles() []Profile { return trace.QuickProfiles() }

// ProfileByName finds a default profile.
func ProfileByName(name string) (Profile, bool) { return trace.ProfileByName(name) }

// BuildProgram lowers a profile to an executable code image.
func BuildProgram(p Profile) (*Program, error) { return trace.BuildProgram(p) }

// NewWalker returns an endless instruction stream over prog.
func NewWalker(prog *Program) Source { return trace.NewWalker(prog) }

// Limit truncates a source after n instructions.
func Limit(src Source, n int) Source { return trace.NewLimit(src, n) }

// Run executes cfg over an arbitrary instruction source. code provides
// instruction classes for UCP's alternate fill path (a *Program works;
// nil degrades the fill fidelity).
func Run(cfg Config, src Source, code CodeInfo, traceName string) (Result, error) {
	return sim.Run(cfg, src, code, traceName)
}

// CodeInfo exposes instruction classes at addresses (see core.CodeInfo).
type CodeInfo = core.CodeInfo

// RunProfile builds the profile's program and runs cfg over it with the
// configured warmup/measure budget.
func RunProfile(cfg Config, p Profile) (Result, error) {
	prog, err := trace.BuildProgram(p)
	if err != nil {
		return Result{}, err
	}
	need := int(cfg.WarmupInsts+cfg.MeasureInsts) + 200_000
	src := trace.NewLimit(trace.NewWalker(prog), need)
	return sim.Run(cfg, src, prog, p.Name)
}

// NewExperiments builds a harness runner over the given options.
func NewExperiments(opts ExperimentOptions) *Experiments {
	return harness.NewRunner(opts)
}

// DefaultExperimentOptions returns the standard sweep writing to out.
func DefaultExperimentOptions(out io.Writer) ExperimentOptions {
	return harness.DefaultOptions(out)
}
