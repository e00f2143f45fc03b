// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator. Every component that needs randomness owns
// its own generator seeded from the run seed, so simulations are exactly
// reproducible regardless of goroutine scheduling or iteration order.
//
// The generator is xoshiro256**, seeded through SplitMix64, following the
// reference implementations by Blackman and Vigna. It is not intended for
// cryptographic use.
package rng

import (
	"math"

	"wormnet/internal/snap"
)

// Source is a deterministic pseudo-random generator. The zero value is not
// valid; construct one with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the SplitMix64 state and returns the next value.
// It is used only to expand a 64-bit seed into the 256-bit xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield streams that
// are, for simulation purposes, statistically independent.
func New(seed uint64) *Source {
	st := seed
	var s Source
	s.s0 = splitMix64(&st)
	s.s1 = splitMix64(&st)
	s.s2 = splitMix64(&st)
	s.s3 = splitMix64(&st)
	// xoshiro must not be seeded with all zeros; SplitMix64 cannot produce
	// four consecutive zeros, so this is a safeguard only.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	return &s
}

// AppendSnapshot appends the generator's 256-bit state to dst (for
// sim.Engine.Snapshot).
func (s *Source) AppendSnapshot(dst []byte) []byte {
	dst = snap.U64(dst, s.s0)
	dst = snap.U64(dst, s.s1)
	dst = snap.U64(dst, s.s2)
	return snap.U64(dst, s.s3)
}

// RestoreSnapshot resumes the stream AppendSnapshot captured; decoding errors
// stay in r. The all-zero state, which xoshiro never leaves, is rejected.
func (s *Source) RestoreSnapshot(r *snap.Reader) {
	var st [4]int64
	r.I64s(st[:])
	s.s0, s.s1, s.s2, s.s3 = uint64(st[0]), uint64(st[1]), uint64(st[2]), uint64(st[3])
	if r.Err() == nil && s.s0|s.s1|s.s2|s.s3 == 0 {
		r.Failf("rng: snapshot holds the all-zero generator state")
	}
}

// Split derives a new independent Source from s. It consumes one value from
// s, so the parent stream advances deterministically.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd1b54a32d192ed03)
}

// Derive deterministically maps a base seed plus a path of indices to a new
// seed. It is a pure function of its arguments — no generator state is
// involved — so the result is stable across processes and machines, which is
// what lets a parallel sweep reproduce a serial one bit for bit: run
// (point p, replicate r) of a sweep with base seed s always simulates with
// seed Derive(s, p, r), no matter which worker picks it up or in what order.
//
// Each step feeds the previous output plus an odd-multiplier spread of the
// index back through SplitMix64, so at every level distinct indices yield
// distinct inputs to the finalizer (the pre-mix is bijective in the index).
func Derive(seed uint64, indices ...uint64) uint64 {
	st := seed
	out := splitMix64(&st)
	for _, idx := range indices {
		st = out + idx*0xd1b54a32d192ed03
		out = splitMix64(&st)
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to remove modulo bias.
	threshold := -n % n
	for {
		v := s.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. Values of p outside [0,1] clamp to
// always-false or always-true.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, i.e. a geometric variate with support {0, 1, 2, ...}. For p >= 1
// it returns 0; for p <= 0 it panics since the variate is undefined.
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	u := s.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(1-u) / math.Log(1-p))
}
