package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"ucp/internal/runq"
	"ucp/internal/sim"
	"ucp/internal/trace"
)

// gates maps each check.sh gate id (`experiments -gate <id>`) to its
// runner, in check.sh order; the id also names the record,
// BENCH_<id>.json.
var gates = []struct {
	id  string
	run gate
}{
	{"sampling", gateOf(runSamplePasses, checkSample, reportSample)},
	{"tpar", tparGate().gate()},
	{"wpar", wparGate().gate()},
	{"sweepreuse", gateOf(runSweepReusePasses, checkSweepReuse, reportSweepReuse)},
	{"autopilot", gateOf(runAutopilotPasses, checkAutopilot, reportAutopilot)},
	{"sweepd", gateOf(runSweepdPasses, checkSweepd, reportSweepd)},
}

// gate runs one gate and returns the violated bounds plus the record.
// An error means a pass itself failed, leaving nothing to check.
type gate func(io.Writer) ([]string, benchRecord, error)

// gateOf assembles a gate from its three parts. run executes the passes
// in this one process, so every wall-clock ratio compares like against
// like, and keeps the core count it is handed in the passes for the
// record; check applies every bound to them as a pure function, so each
// bound is unit-testable without simulating; report prints the console
// summary.
func gateOf[P any, R benchRecord](run func(w io.Writer, cores int) (P, error), check func(P) ([]string, R),
	report func(io.Writer, P, R) error) gate {
	return func(w io.Writer) ([]string, benchRecord, error) {
		p, err := run(w, hostCores())
		if err != nil {
			return nil, nil, err
		}
		violations, rec := check(p)
		return violations, rec, report(w, p, rec)
	}
}

// gateIDs lists the valid -gate values.
func gateIDs() string {
	ids := make([]string, len(gates))
	for i, g := range gates {
		ids[i] = g.id
	}
	return strings.Join(ids, " ")
}

// runGate runs the gate named id, writes BENCH_<id>.json, prints every
// violation to stderr, and returns an error when a pass failed or a
// bound was violated.
func runGate(w io.Writer, id string) error {
	for _, g := range gates {
		if g.id != id {
			continue
		}
		violations, rec, err := g.run(w)
		if err == nil {
			err = writeBench("BENCH_"+id+".json", rec)
		}
		if err != nil {
			return fmt.Errorf("%s gate: %v", id, err)
		}
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "%s gate: %s\n", id, v)
		}
		if len(violations) > 0 {
			return fmt.Errorf("%s gate: %d bound violation(s)", id, len(violations))
		}
		return nil
	}
	return fmt.Errorf("unknown gate %q (one of: %s)", id, gateIDs())
}

// benchEnvelope is the shared head of every BENCH_*.json record — the
// fields check.sh's schema step greps for. Each gate's record embeds it.
type benchEnvelope struct {
	SchemaVersion int    `json:"schema_version"`
	Bench         string `json:"bench"`
	Cores         int    `json:"cores"`
}

// hostCores is the core count a gate run sees and its record carries:
// GOMAXPROCS, not NumCPU, since a container CPU quota caps what the
// worker pools actually schedule on. check.sh's own records
// (`experiments -record`, record.go) carry the same count.
func hostCores() int { return runtime.GOMAXPROCS(0) }

// newEnvelope builds a record head for a run on the given core count.
func newEnvelope(bench string, cores int) benchEnvelope {
	return benchEnvelope{SchemaVersion: 1, Bench: bench, Cores: cores}
}

// benchRecord is a gate's BENCH record: any struct embedding
// benchEnvelope, which promotes the method.
type benchRecord interface{ envelope() benchEnvelope }

func (e benchEnvelope) envelope() benchEnvelope { return e }

// writeBench writes rec as indented JSON.
func writeBench(path string, rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// wallClock returns a clock reading the wall time elapsed since the
// call. It is the package's one wall-clock source: progress lines, the
// sweepd gate's server clock and, through timed, every gate pass.
func wallClock() func() time.Duration {
	start := time.Now() //ucplint:ignore wallclock
	return func() time.Duration {
		return time.Since(start) //ucplint:ignore wallclock
	}
}

// timed runs f and returns its wall-clock duration.
func timed(f func()) time.Duration {
	elapsed := wallClock()
	f()
	return elapsed()
}

// simRunner builds the named trace's program once and returns a
// function running a config over a fresh walk of it, limited to insts
// instructions.
func simRunner(traceName string, insts int) (func(sim.Config) (sim.Result, error), error) {
	prof, ok := trace.ProfileByName(traceName)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", traceName)
	}
	prog, err := trace.BuildProgram(prof)
	if err != nil {
		return nil, fmt.Errorf("building %s: %v", traceName, err)
	}
	return func(cfg sim.Config) (sim.Result, error) {
		return sim.Run(cfg, trace.NewLimit(trace.NewWalker(prog), insts), prog, traceName)
	}, nil
}

// relIPCErr is |got − ref| / ref, the relative IPC error the gates
// bound. A reference without IPC cannot vouch for anything, so it
// counts as a 100% error rather than a NaN that compares as passing.
func relIPCErr(ref, got float64) float64 {
	if ref <= 0 {
		return 1
	}
	return math.Abs(got-ref) / ref
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// roundTo rounds x to the given number of decimal places, so the BENCH
// record carries the same precision the console report prints.
func roundTo(x float64, places int) float64 {
	p := math.Pow(10, float64(places))
	return math.Round(x*p) / p
}

// diverging returns the config names of the jobs whose digest in any of
// got differs from ref.
func diverging(jobs []runq.Job, ref []string, got ...[]string) []string {
	var out []string
	for i, j := range jobs {
		for _, g := range got {
			if g[i] != ref[i] {
				out = append(out, j.Config.Name)
				break
			}
		}
	}
	return out
}
