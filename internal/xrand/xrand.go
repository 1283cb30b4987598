// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the fault-injection and workload-generation
// code. Experiments must be exactly reproducible from a single seed, and
// fault draws for a given task must not depend on scheduling order, so we
// derive an independent stream per (seed, taskID, attempt) using SplitMix64
// and run xoshiro256** on top of it.
package xrand

import "math"

// SplitMix64 is the 64-bit finalizer-based generator from Steele et al.
// It is used both as a standalone generator and to seed xoshiro streams.
type SplitMix64 struct {
	state uint64
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to x once. It is a high-quality
// 64-bit hash suitable for combining identifiers into seeds.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Combine hashes a variable number of 64-bit identifiers into a single seed.
// It is associative-free (order matters) and collision-resistant enough for
// deriving per-task fault streams.
func Combine(parts ...uint64) uint64 {
	h := uint64(0x8A5CD789635D2DFF)
	for _, p := range parts {
		h = Mix64(h ^ p)
	}
	return h
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded deterministically from seed via SplitMix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := SplitMix64{state: seed}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// First returns New(seed).Uint64() without building the generator: the
// first xoshiro256** output reads only s[1], which is SplitMix64's second
// output, Mix64(seed+γ). A caller that needs one draw per stream (a fault
// draw per task attempt) pays one finalizer instead of four.
func First(seed uint64) uint64 {
	return rotl(Mix64(seed+0x9E3779B97F4A7C15)*5, 7) * 9
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return Unit(r.Uint64()) }

// Unit maps a uniform 64-bit word to a uniform value in [0, 1) from its top
// 53 bits, as Float64 does.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value (mean 0, stddev 1)
// using the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
