// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every source of randomness in the repository (workload sampling, synthetic
// address streams, tie-breaking) is drawn from seeded instances of this
// generator, so that any experiment run twice produces bit-identical output.
// The hardware-style probabilistic throttles of the modelled policies (BRRIP's
// 1/32 insertions, ADAPT's 1/16 and 1/32 insertions) intentionally do NOT use
// this package: they are modelled with saturating counters exactly as the
// hardware proposals describe.
//
// The generator is splitmix64 (Steele, Lea, Flood; also the seeding function
// of xoshiro). It passes BigCrush for the bit widths we consume, has a period
// of 2^64 and costs a handful of arithmetic operations per output.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic splitmix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New to make the
// seed explicit. Source is not safe for concurrent use; give each goroutine
// its own instance.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield streams that
// are independent for all practical simulation purposes.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	for {
		v := s.Uint64()
		hi, lo := mul128(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
//
// The value is exactly float64(Uint64()>>11) / 2^53 — one 53-bit draw,
// exactly representable, so `Float64() < p` is decidable in integer
// arithmetic (see Threshold53). Tests pin this construction; changing it
// changes every generated trace stream.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Threshold53 returns the unique integer threshold t such that for every
// 53-bit draw k = Uint64()>>11,
//
//	float64(k)/2^53 < p  ⟺  k < t
//
// which lets hot loops replace a `Float64() < p` branch with one integer
// compare on the same Uint64 draw — same draw count, same accept/reject
// outcome, bit for bit.
//
// Why this is exact: k < 2^53, so float64(k) is exact, and dividing by the
// power of two 2^53 is exact, so `Float64() < p` compares the real number
// k/2^53 against p. In the reals, k/2^53 < p ⟺ k < p·2^53; multiplying the
// float64 p by 2^53 only shifts its exponent (p ≤ 1 cannot overflow,
// subnormals scale up exactly), so t' = p·2^53 is computed exactly, and
// k < t' for integer k ⟺ k < ceil(t') (when t' is an integer, ceil is the
// identity and the strict compare is unchanged; otherwise k < t' ⟺
// k ≤ floor(t') ⟺ k < ceil(t')). p ≤ 0 accepts nothing; p ≥ 1 accepts
// every draw, exactly as Float64() ∈ [0,1) always satisfies `< 1`.
func Threshold53(p float64) uint64 {
	if p <= 0 || p != p { // reject NaN along with non-positive p
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Shuffle permutes the first n elements using swap, as in math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in ascending
// order. It panics if k > n or k < 0. It is used to pick monitored cache sets
// and set-dueling leader sets.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range")
	}
	// Floyd's algorithm: O(k) expected insertions.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Insertion sort: k is small (tens) in all our uses.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Fork returns a new Source whose stream is decorrelated from s. It is used
// to hand independent streams to sub-components while preserving determinism.
func (s *Source) Fork() *Source {
	return New(s.Uint64() ^ 0xD1B54A32D192ED03)
}

// mul128 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// compiles to the single widening-multiply instruction on every 64-bit
// target, which matters because every bounded draw performs one.
func mul128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}
