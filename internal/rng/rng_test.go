package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFloat64Is53BitDraw pins the construction the trace layer's integer
// fast paths rest on: Float64() is exactly float64(Uint64()>>11) / 2^53,
// one draw per call. If this ever changes, every generated trace stream
// changes with it — and Threshold53's equivalence proof no longer applies.
func TestFloat64Is53BitDraw(t *testing.T) {
	a, b := New(0xF00D), New(0xF00D)
	for i := 0; i < 10000; i++ {
		want := float64(b.Uint64()>>11) / float64(1<<53)
		if got := a.Float64(); got != want {
			t.Fatalf("step %d: Float64() = %v, want float64(Uint64()>>11)/2^53 = %v", i, got, want)
		}
	}
}

// TestThreshold53Equivalence is the proof obligation of the batched trace
// loops: for every 53-bit draw k, `float64(k)/2^53 < p` must agree with
// `k < Threshold53(p)`. Edge probabilities (0, 1, subnormal-adjacent,
// 1-ulp-below-1) and edge draws (0, 1, 2^53-1) are pinned explicitly on
// top of a randomized sweep.
func TestThreshold53Equivalence(t *testing.T) {
	ps := []float64{
		0, 1, 0.5, 0.3, 0.25, 1.0 / 3.0, 0.9999,
		math.SmallestNonzeroFloat64,         // smallest subnormal
		math.Nextafter(0, 1),                // same, spelled via Nextafter
		2.220446049250313e-16,               // 2^-52, one draw accepted
		math.Nextafter(math.Pow(2, -53), 0), // just below the one-draw boundary
		math.Pow(2, -53),                    // exactly the one-draw boundary
		math.Nextafter(1, 0),                // largest float64 < 1
		1.5, -0.25, math.NaN(),              // out-of-range: all-or-nothing
		float64(3) / float64(1<<53),         // integral-threshold case
		(float64(3) + 0.5) / float64(1<<53), // fractional-threshold case
	}
	ks := []uint64{0, 1, 2, 3, 4, 1<<52 - 1, 1 << 52, 1<<53 - 2, 1<<53 - 1}
	src := New(0xABCD)
	for i := 0; i < 2000; i++ {
		ks = append(ks, src.Uint64()>>11)
	}
	for _, p := range ps {
		thresh := Threshold53(p)
		for _, k := range ks {
			want := float64(k)/float64(1<<53) < p
			got := k < thresh
			if got != want {
				t.Fatalf("p=%v k=%d: float compare %v, threshold compare %v (thresh=%d)", p, k, want, got, thresh)
			}
		}
	}
}

// TestThreshold53MatchesSourceDraws closes the loop end to end: two
// same-seeded sources, one consumed via Float64-compare and one via
// threshold-compare, must make identical accept/reject decisions forever.
func TestThreshold53MatchesSourceDraws(t *testing.T) {
	for _, p := range []float64{0, 1e-9, 0.1, 0.5, 0.7, 0.999999, 1} {
		a, b := New(42), New(42)
		thresh := Threshold53(p)
		for i := 0; i < 5000; i++ {
			if (a.Float64() < p) != (b.Uint64()>>11 < thresh) {
				t.Fatalf("p=%v: decision diverges at draw %d", p, i)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with distinct seeds collided %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 16, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nRange(t *testing.T) {
	s := New(9)
	for _, n := range []uint64{1, 5, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared sanity check over 16 buckets; loose 99.9% bound.
	s := New(123)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom, p=0.001 critical value is 37.70.
	if chi2 > 37.70 {
		t.Fatalf("chi-squared %.2f exceeds 37.70; distribution looks biased: %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestSampleDistinctSorted(t *testing.T) {
	s := New(3)
	for trial := 0; trial < 100; trial++ {
		out := s.Sample(16384, 40)
		if len(out) != 40 {
			t.Fatalf("Sample returned %d values, want 40", len(out))
		}
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				t.Fatalf("Sample output not strictly ascending: %v", out)
			}
		}
		for _, v := range out {
			if v < 0 || v >= 16384 {
				t.Fatalf("Sample value %d out of range", v)
			}
		}
	}
}

func TestSampleFullRange(t *testing.T) {
	s := New(4)
	out := s.Sample(10, 10)
	for i, v := range out {
		if v != i {
			t.Fatalf("Sample(10,10) = %v, want identity permutation sorted", out)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestForkDecorrelated(t *testing.T) {
	s := New(77)
	f := s.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if s.Uint64() == f.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked stream collides with parent %d/1000 times", same)
	}
}

func TestMul128AgainstBig(t *testing.T) {
	// Property: mul128 must agree with the schoolbook decomposition.
	f := func(a, b uint64) bool {
		hi, lo := mul128(a, b)
		// Verify via 32-bit limbs assembled with math/bits-free arithmetic.
		a0, a1 := a&0xFFFFFFFF, a>>32
		b0, b1 := b&0xFFFFFFFF, b>>32
		p00 := a0 * b0
		p01 := a0 * b1
		p10 := a1 * b0
		p11 := a1 * b1
		mid := p01 + p10
		carryMid := uint64(0)
		if mid < p01 {
			carryMid = 1 << 32
		}
		wantLo := p00 + (mid << 32)
		carryLo := uint64(0)
		if wantLo < p00 {
			carryLo = 1
		}
		wantHi := p11 + (mid >> 32) + carryMid + carryLo
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleAllPermutationsReachable(t *testing.T) {
	// With 3 elements there are 6 permutations; all should appear.
	seen := make(map[[3]int]bool)
	s := New(99)
	for i := 0; i < 600; i++ {
		arr := [3]int{0, 1, 2}
		s.Shuffle(3, func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
		seen[arr] = true
	}
	if len(seen) != 6 {
		t.Fatalf("only %d/6 permutations observed", len(seen))
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}
