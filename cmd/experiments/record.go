package main

import (
	"fmt"
	"os"
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

// hotpathRecord is BENCH_hotpath.json: BenchmarkSimQuick's throughput
// and allocation rate, with the runq gate's serial sweep time from the
// same check.sh invocation (0 when that gate did not run).
type hotpathRecord struct {
	benchEnvelope
	SimulatedInstsPerSec float64 `json:"simulated_insts_per_sec"`
	AllocsPerInst        float64 `json:"allocs_per_inst"`
	SweepSerialMS        int64   `json:"sweep_serial_ms"`
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
	// A result line is the name (with any -GOMAXPROCS suffix), the
	// iteration count, then value/unit pairs; the last one counts.
	const name = "BenchmarkSimQuick"
	var units map[string]string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || (f[0] != name && !strings.HasPrefix(f[0], name+"-")) {
			continue
		}
		units = map[string]string{}
		for i := 3; i < len(f); i += 2 {
			units[f[i]] = f[i-1]
		}
	}
	if units == nil {
		return nil, fmt.Errorf("no %s result line", name)
	}
	var vals [2]float64
	for i, u := range []string{"insts/s", "allocs/inst"} {
		if vals[i], err = strconv.ParseFloat(units[u], 64); err != nil {
			return nil, fmt.Errorf("%s reports no %s", name, u)
		}
	}
	return hotpathRecord{
		benchEnvelope:        newEnvelope("BenchmarkSimQuick (quick set, baseline+UCP, 30k+30k insts each)", cores),
		SimulatedInstsPerSec: roundTo(vals[0], 0),
		AllocsPerInst:        roundTo(vals[1], 5),
		SweepSerialMS:        sweepMS,
	}, nil
}
