// Package stats provides the small statistics toolkit the simulator's
// analyses are built on: log-bucketed histograms (stream lengths, refill
// latencies), streaming means, and aggregate helpers. The paper reasons
// about distributions — e.g. "the µ-op cache is only beneficial for
// applications that exhibit long enough streams of consecutive hits"
// (§III-A) — so the harness reports them, not just means.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram is a power-of-two bucketed histogram of non-negative
// samples: bucket i counts samples in [2^i, 2^(i+1)) with bucket 0
// holding zeros and ones.
type Histogram struct {
	name    string
	buckets [40]uint64
	count   uint64
	sum     float64
	min     uint64
	max     uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: math.MaxUint64}
}

// bucketOf maps v to its power-of-two bucket: floor(log2(v)), with 0
// and 1 sharing bucket 0 and everything ≥ 2^39 clamped into bucket 39.
// bits.Len64 keeps the Add path loop- and branch-free.
func bucketOf(v uint64) int {
	b := bits.Len64(v|1) - 1
	if b >= 40 {
		b = 39
	}
	return b
}

// Add records one sample. It is called per event from the cycle
// engine's inner loop and must stay allocation-free.
//
//ucplint:hotpath
func (h *Histogram) Add(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound on the p-th percentile (p in
// [0,100]) at bucket resolution.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for i, c := range h.buckets {
		acc += c
		if acc >= target {
			if i == 0 {
				return 1
			}
			return 1<<uint(i+1) - 1 // inclusive bucket upper bound
		}
	}
	return h.max
}

// String renders a compact one-line summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.1f p50≤%d p90≤%d p99≤%d max=%d",
		h.name, h.count, h.Mean(), h.Percentile(50), h.Percentile(90),
		h.Percentile(99), h.Max())
}

// Render draws an ASCII bar chart of the non-empty buckets.
func (h *Histogram) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (n=%d, mean=%.1f)\n", h.name, h.count, h.Mean())
	var peak uint64
	last := 0
	for i, c := range h.buckets {
		if c > peak {
			peak = c
		}
		if c > 0 {
			last = i
		}
	}
	if peak == 0 {
		return sb.String()
	}
	for i := 0; i <= last; i++ {
		lo := uint64(0)
		if i > 0 {
			lo = 1 << uint(i)
		}
		hi := uint64(1)<<uint(i+1) - 1
		bar := int(40 * h.buckets[i] / peak)
		fmt.Fprintf(&sb, "%10d-%-10d |%-40s %d\n", lo, hi, strings.Repeat("#", bar), h.buckets[i])
	}
	return sb.String()
}

// histogramState is the exported wire form of a Histogram. The on-disk
// result cache (internal/runq) serializes whole sim.Results as JSON, so
// the round trip must preserve every field a report can render — name,
// buckets, count, sum, min, max — or a cache-warm rerun would print
// different bytes than the run that populated the cache.
type histogramState struct {
	Name    string   `json:"name"`
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramState{
		Name:    h.name,
		Buckets: h.buckets[:],
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var s histogramState
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s.Buckets) > len(h.buckets) {
		return fmt.Errorf("stats: histogram %q has %d buckets, want ≤ %d",
			s.Name, len(s.Buckets), len(h.buckets))
	}
	*h = Histogram{name: s.Name, count: s.Count, sum: s.Sum, min: s.Min, max: s.Max}
	copy(h.buckets[:], s.Buckets)
	return nil
}

// Merge adds other's samples into h (bucket-wise; min/max/mean exact).
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Clone returns an independent copy of h (nil-safe). An aggregator
// that must leave its inputs intact (tpar's fold of per-segment
// results) clones the first part and merges the rest into the copy.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	return &c
}

// Geomean computes the geometric mean of ratios (b[i]/a[i]) minus one,
// as a percentage — the speedup aggregation the paper uses (§V).
func Geomean(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range a {
		if a[i] <= 0 || b[i] <= 0 {
			return 0, fmt.Errorf("stats: non-positive sample at %d", i)
		}
		sum += math.Log(b[i] / a[i])
	}
	return (math.Exp(sum/float64(len(a))) - 1) * 100, nil
}

// Amean is the arithmetic mean (0 when empty).
func Amean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
