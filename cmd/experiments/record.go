package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// runRecord writes BENCH_<id>.json for one of check.sh's self-timed
// steps, through the same envelope and writer as every gate's record.
// The step measures in the shell and passes its readings as args:
//
//	runq    <serial_ms> <parallel8_ms> <warm_cache_ms>
//	hotpath <go test -bench output file> <sweep_serial_ms>
func runRecord(id string, args []string) error {
	var rec benchRecord
	var err error
	switch id {
	case "runq":
		rec, err = buildRunqRecord(args, hostCores())
	case "hotpath":
		rec, err = buildHotpathRecord(args, hostCores())
	default:
		return fmt.Errorf("unknown record %q (one of: runq hotpath)", id)
	}
	if err != nil {
		return fmt.Errorf("%s record: %v", id, err)
	}
	return writeBench("BENCH_"+id+".json", rec)
}

// msArg parses a millisecond count.
func msArg(a string) (int64, error) {
	v, err := strconv.ParseInt(a, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%q is not a millisecond count", a)
	}
	return v, nil
}

// runqRecord is BENCH_runq.json: the quick sweep timed serially, on 8
// workers, and from a warm result cache. On one core the 8-worker pool
// time-slices, so the record says so instead of presenting the ratio
// as a regression.
type runqRecord struct {
	benchEnvelope
	SerialMS           int64   `json:"serial_ms"`
	Parallel8MS        int64   `json:"parallel8_ms"`
	WarmCacheMS        int64   `json:"warm_cache_ms"`
	ParallelSpeedup    float64 `json:"parallel_speedup"`
	Note               string  `json:"note,omitempty"`
	WarmFractionOfCold float64 `json:"warm_fraction_of_cold"`
}

func buildRunqRecord(args []string, cores int) (benchRecord, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("got %d arguments, want 3", len(args))
	}
	var ms [3]int64
	for i, a := range args {
		v, err := msArg(a)
		if err != nil {
			return nil, err
		}
		ms[i] = v
	}
	rec := runqRecord{
		benchEnvelope: newEnvelope("runq quick sweep (-all -quick, 60k+60k insts)", cores),
		SerialMS:      ms[0], Parallel8MS: ms[1], WarmCacheMS: ms[2],
	}
	if rec.Parallel8MS > 0 {
		rec.ParallelSpeedup = roundTo(float64(rec.SerialMS)/float64(rec.Parallel8MS), 2)
	}
	if rec.SerialMS > 0 {
		rec.WarmFractionOfCold = roundTo(float64(rec.WarmCacheMS)/float64(rec.SerialMS), 3)
	}
	if cores < 2 {
		rec.Note = fmt.Sprintf("single-core host (GOMAXPROCS=%d): parallel_speedup is time-slicing, no speedup expected", cores)
	}
	return rec, nil
}

// hotpathRecord is BENCH_hotpath.json: BenchmarkSimQuick's throughput,
// allocation count and allocated bytes per simulated instruction, each
// as the quartiles of at least hotpathSamples runs (one -benchtime=1x
// run moves by a third on host noise alone), with the runq gate's
// serial sweep time from the same check.sh invocation (0 when that gate
// did not run). When the output also holds BenchmarkBuildProgram
// lines, at least hotpathSamples of them, the quartiles of their
// ns/op in milliseconds are build_program_ms: the time to build the
// four full-pairs program images. Likewise the quartiles of
// BenchmarkNewMachine's B/op in KiB are new_machine_kb: what a Table
// II UCP machine allocates on fresh arrays; of BenchmarkPredictorReplay's
// ns/branch, bpred_ns_per_branch: the demand predictor and Alt-BP
// trained on one conditional branch as the warming skip trains them;
// and of BenchmarkWarmSkip/srv203/ucp's ns/inst, warm_skip_ns_per_inst:
// the UCP machine's warming skip per instruction on srv203.
type hotpathRecord struct {
	benchEnvelope
	Samples              int        `json:"samples"`
	SimulatedInstsPerSec quartiles  `json:"simulated_insts_per_sec"`
	AllocsPerInst        quartiles  `json:"allocs_per_inst"`
	BytesPerInst         quartiles  `json:"bytes_per_inst"`
	BuildProgramMS       *quartiles `json:"build_program_ms,omitempty"`
	NewMachineKB         *quartiles `json:"new_machine_kb,omitempty"`
	BpredNsPerBranch     *quartiles `json:"bpred_ns_per_branch,omitempty"`
	WarmSkipNsPerInst    *quartiles `json:"warm_skip_ns_per_inst,omitempty"`
	SweepSerialMS        int64      `json:"sweep_serial_ms"`
}

// hotpathSamples is the fewest result lines of each benchmark a hotpath
// record accepts (check.sh runs -count 5).
const hotpathSamples = 5

// benchResults returns the value of each unit on every result line of
// the named benchmark in go test -bench output: the name (with any
// -GOMAXPROCS suffix), the iteration count, then value/unit pairs.
func benchResults(out, name string) []map[string]float64 {
	var res []map[string]float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || (f[0] != name && !strings.HasPrefix(f[0], name+"-")) {
			continue
		}
		units := map[string]float64{}
		for i := 3; i < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i-1], 64); err == nil {
				units[f[i]] = v
			}
		}
		res = append(res, units)
	}
	return res
}

// quartiles summarizes samples by their median and quartiles.
type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// quartilesOf returns the quartiles of v, linearly interpolated between
// order statistics and rounded to places decimals.
func quartilesOf(v []float64, places int) quartiles {
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return roundTo(s[len(s)-1], places)
		}
		return roundTo(s[i]+(x-float64(i))*(s[i+1]-s[i]), places)
	}
	return quartiles{q(0.25), q(0.5), q(0.75)}
}

func buildHotpathRecord(args []string, cores int) (benchRecord, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("got %d arguments, want 2", len(args))
	}
	sweepMS, err := msArg(args[1])
	if err != nil {
		return nil, err
	}
	out, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	// B/op comes from -benchmem; the benchmark reports insts/op, so
	// their ratio is the bytes allocated per simulated instruction.
	const name = "BenchmarkSimQuick"
	var ips, apis, bpis []float64
	for _, units := range benchResults(string(out), name) {
		for _, u := range []string{"insts/s", "allocs/inst", "B/op", "insts/op"} {
			if _, ok := units[u]; !ok {
				return nil, fmt.Errorf("%s reports no %s", name, u)
			}
		}
		if units["insts/op"] <= 0 {
			return nil, fmt.Errorf("%s reports %v insts/op", name, units["insts/op"])
		}
		ips = append(ips, units["insts/s"])
		apis = append(apis, units["allocs/inst"])
		bpis = append(bpis, units["B/op"]/units["insts/op"])
	}
	if len(ips) < hotpathSamples {
		return nil, fmt.Errorf("got %d %s result lines, want at least %d (-count %d)", len(ips), name, hotpathSamples, hotpathSamples)
	}
	rec := hotpathRecord{
		benchEnvelope:        newEnvelope("BenchmarkSimQuick (quick set, baseline+UCP, 30k+30k insts each)", cores),
		Samples:              len(ips),
		SimulatedInstsPerSec: quartilesOf(ips, 0),
		AllocsPerInst:        quartilesOf(apis, 5),
		BytesPerInst:         quartilesOf(bpis, 2),
		SweepSerialMS:        sweepMS,
	}
	if rec.BuildProgramMS, err = optionalQuartiles(string(out), "BenchmarkBuildProgram", "ns/op", 1e6); err != nil {
		return nil, err
	}
	if rec.NewMachineKB, err = optionalQuartiles(string(out), "BenchmarkNewMachine", "B/op", 1024); err != nil {
		return nil, err
	}
	if rec.BpredNsPerBranch, err = optionalQuartiles(string(out), "BenchmarkPredictorReplay", "ns/branch", 1); err != nil {
		return nil, err
	}
	if rec.WarmSkipNsPerInst, err = optionalQuartiles(string(out), "BenchmarkWarmSkip/srv203/ucp", "ns/inst", 1); err != nil {
		return nil, err
	}
	return rec, nil
}

// optionalQuartiles returns the quartiles, to two decimals, of unit
// over scale on every result line of the named benchmark, or nil when
// out holds none. Fewer than hotpathSamples lines, or a line without
// unit, is an error.
func optionalQuartiles(out, name, unit string, scale float64) (*quartiles, error) {
	res := benchResults(out, name)
	if len(res) == 0 {
		return nil, nil
	}
	var v []float64
	for _, units := range res {
		x, ok := units[unit]
		if !ok {
			return nil, fmt.Errorf("%s reports no %s", name, unit)
		}
		v = append(v, x/scale)
	}
	if len(v) < hotpathSamples {
		return nil, fmt.Errorf("got %d %s result lines, want at least %d (-count %d)", len(v), name, hotpathSamples, hotpathSamples)
	}
	q := quartilesOf(v, 2)
	return &q, nil
}
