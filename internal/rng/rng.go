// Package rng provides a small, fast, deterministic pseudo-random number
// generator (xoshiro256**) used throughout the simulator and the synthetic
// workload generator. Determinism across runs and platforms is a hard
// requirement: every experiment in this repository must be exactly
// reproducible from a seed, so we do not use math/rand's global state.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256** generator. The zero value is invalid; use New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed using splitmix64,
// which guarantees a well-distributed non-zero internal state for any
// seed, including zero.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 returns the next 64 random bits. The state is held in
// locals and rotated with bits.RotateLeft64, which keeps the function
// under the compiler's inlining budget.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	r.s = [4]uint64{s0, s1, s2, s3}
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator from this one. Forked streams are
// used so that adding randomness consumption in one subsystem does not
// perturb another subsystem's stream.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64())
}

// Geometric returns a sample from a geometric distribution with mean m
// (m >= 1), i.e. the number of trials until first success with p = 1/m.
// Useful for run lengths and trip counts.
func (r *Rand) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1.0 / m
	n := 1
	for !r.Bool(p) && n < 1<<20 {
		n++
	}
	return n
}

// Zipf returns a value in [0, n) following an approximate Zipf(s=1)
// distribution, biased toward small values. It is used to pick "hot"
// functions and branch targets so synthetic code has realistic skew.
func (r *Rand) Zipf(n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF approximation for s=1: P(X <= k) ~ ln(k+1)/ln(n+1).
	u := r.Float64()
	k := int(math.Exp(u*math.Log(float64(n+1)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}
