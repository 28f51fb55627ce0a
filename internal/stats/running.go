package stats

import "math"

// Running is a one-pass Welford accumulator for mean/variance, used by
// the adaptive sampling controller to evaluate its stop rule in O(1)
// per window instead of retaining and re-scanning every window sample.
// Its CI95 method matches the slice-based CI95 function bit-for-bit in
// semantics (same t table, same edge cases) and to float tolerance in
// value; the equivalence is pinned by TestRunningMatchesCI95.
type Running struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations added.
func (r *Running) N() int { return r.n }

// Mean returns the running sample mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// CI95 returns the sample mean and the half-width of its 95%
// confidence interval under the same Student-t model as the
// slice-based CI95: empty yields (0, 0); a single sample yields its
// value with an infinite half-width — the adaptive controller relies
// on that +Inf to never terminate on n=1 — and a constant series
// yields (value, 0).
func (r *Running) CI95() (mean, half float64) {
	if r.n == 0 {
		return 0, 0
	}
	if r.n == 1 {
		return r.mean, math.Inf(1)
	}
	sd := math.Sqrt(r.m2 / float64(r.n-1)) // Bessel-corrected
	df := r.n - 1
	t := 1.96
	if df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return r.mean, t * sd / math.Sqrt(float64(r.n))
}
