package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the runtime/pprof CPU profile of a traced run and
// splits its samples by the package of the leaf function (self time).
// Only the standard library is available, so it decodes the few
// profile.proto fields it needs by hand: sample (2), location (4),
// function (5) and string_table (6).

// gcRoots mark a sample as garbage-collector work wherever they appear
// on its stack.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC"}

// cpuSums returns, per cpuBuckets entry, the sampled CPU time whose
// leaf function belongs to that package.
func cpuSums(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	buckets := map[string]bool{}
	for _, b := range cpuBuckets {
		buckets[b] = true
	}
	sums := map[string]float64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		sums[sampleBucket(p, s.locs, buckets)] += float64(s.values[len(s.values)-1])
	}
	return sums, nil
}

// sampleBucket attributes one stack (leaf first) to a bucket.
func sampleBucket(p *profile, locs []uint64, buckets map[string]bool) string {
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			for _, r := range gcRoots {
				if p.funcName(fn) == r {
					return "gc"
				}
			}
		}
	}
	fns := p.locFuncs[locs[0]]
	if len(fns) == 0 {
		return "other"
	}
	pkg := funcPackage(p.funcName(fns[0]))
	if buckets[pkg] {
		return pkg
	}
	return "other"
}

// funcPackage maps a symbol such as "ucp/internal/bpred.(*TAGE).Update"
// to its bucket name ("bpred"); the sweepd client counts as sweepd.
func funcPackage(sym string) string {
	if strings.HasPrefix(sym, "ucp/internal/sweepd/") {
		return "sweepd"
	}
	if !strings.HasPrefix(sym, "ucp/internal/") {
		return "other"
	}
	rest := strings.TrimPrefix(sym, "ucp/internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]int64    // function id -> name string index
	strings  []string
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: a varint value or a byte run.
type field struct {
	num   int
	value uint64
	bytes []byte
}

// fields splits a protobuf message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f field) ([]uint64, error) {
	if f.bytes == nil {
		return []uint64{f.value}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, g := range sub {
				vs, err := varints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 4: // Line
					line, err := fields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
			}
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	return p, nil
}
