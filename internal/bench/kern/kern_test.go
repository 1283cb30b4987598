package kern

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"appfit/internal/xrand"
)

func randBlock(seed uint64, n int) []float64 {
	r := xrand.New(seed)
	a := make([]float64, n*n)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	return a
}

// spdBlock returns a symmetric positive-definite block M·Mᵀ + n·I.
func spdBlock(seed uint64, n int) []float64 {
	m := randBlock(seed, n)
	a := make([]float64, n*n)
	GemmSubTransB(a, m, m, n) // a = -M·Mᵀ
	for i := range a {
		a[i] = -a[i]
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

// dominantBlock returns a diagonally dominant block (safe for pivot-free LU).
func dominantBlock(seed uint64, n int) []float64 {
	a := randBlock(seed, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a[i*n+j])
		}
		a[i*n+i] = s + 1
	}
	return a
}

func TestGemmAddSubInverse(t *testing.T) {
	const n = 8
	a, b := randBlock(1, n), randBlock(2, n)
	c := randBlock(3, n)
	orig := append([]float64(nil), c...)
	GemmAdd(c, a, b, n)
	GemmSub(c, a, b, n)
	if MaxAbsDiff(c, orig) > 1e-12 {
		t.Fatal("GemmAdd then GemmSub is not identity")
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	const n = 6
	a, b := randBlock(4, n), randBlock(5, n)
	c := make([]float64, n*n)
	GemmAdd(c, a, b, n)
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			want[i*n+j] = s
		}
	}
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Fatal("GemmAdd disagrees with naive product")
	}
}

// gemmSubTransBRef is the single-accumulator loop GemmSubTransB replaced,
// kept verbatim as the bitwise reference for the blocked kernel.
func gemmSubTransBRef(c, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*n : (j+1)*n]
			s := 0.0
			for k := 0; k < n; k++ {
				s += ai[k] * bj[k]
			}
			ci[j] -= s
		}
	}
}

// zero is a variable so that inf*zero below is evaluated by the FPU.
var zero = 0.0

// specialBlock is a random block salted, about two elements a row, with the
// values a bitwise claim has to survive: signed zeros, subnormals,
// infinities and NaN. Its NaN is the one the FPU itself makes (∞·0), so
// every NaN in flight has one payload. Where two NaNs of different payloads
// meet in one operation, IEEE 754 leaves open which survives; x86 keeps the
// destination operand's, which the register allocator picks, so the
// blocked and plain loops may then disagree in the payload.
func specialBlock(seed uint64, n int) []float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -7 * math.SmallestNonzeroFloat64,
		0x1p-1060, math.Inf(1), math.Inf(-1), math.Inf(1) * zero}
	r := xrand.New(seed)
	a := randBlock(seed, n)
	for i := range a {
		if r.Intn(2*n) == 0 {
			a[i] = specials[r.Intn(len(specials))]
		}
	}
	return a
}

// sameBits reports whether a and b hold the same bit patterns, NaN payloads
// and signed zeros included.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestGemmSubTransB holds the blocked kernel to the reference loop bit
// for bit: every n from 1 to 65 (both parities of rows and columns), C
// pre-filled, finite inputs and inputs salted with ±0, subnormals, ±Inf and
// NaN, and SyrkSub's aliased a == b call.
func TestGemmSubTransB(t *testing.T) {
	for n := 1; n <= 65; n++ {
		for _, special := range []bool{false, true} {
			blk := randBlock
			if special {
				blk = specialBlock
			}
			seed := uint64(100 * n)
			a, b, c0 := blk(seed+1, n), blk(seed+2, n), randBlock(seed+3, n)
			got, want := append([]float64(nil), c0...), append([]float64(nil), c0...)
			GemmSubTransB(got, a, b, n)
			gemmSubTransBRef(want, a, b, n)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("n=%d special=%v: C[%d] = %x, reference %x", n, special, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			got, want = append(got[:0], c0...), append(want[:0], c0...)
			SyrkSub(got, a, n)
			gemmSubTransBRef(want, a, a, n)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("n=%d special=%v: SyrkSub C[%d] = %x, reference %x", n, special, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestToleranceChecksFailOnNaNAndLength holds MaxAbsDiff and Within to the
// verifiers' contract: a NaN difference or a length mismatch is out of any
// tolerance, never skipped.
func TestToleranceChecksFailOnNaNAndLength(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		a, b []float64
	}{
		{"NaN in a", []float64{1, nan, 3}, []float64{1, 2, 3}},
		{"NaN in b", []float64{1, 2, 3}, []float64{1, 2, nan}},
		{"NaN in both", []float64{nan}, []float64{nan}},
		{"a longer", []float64{1, 2, 3}, []float64{1, 2}},
		{"b longer", []float64{1, 2}, []float64{1, 2, 3}},
	}
	for _, c := range cases {
		if d := MaxAbsDiff(c.a, c.b); Within(d, 1e300) {
			t.Errorf("%s: MaxAbsDiff = %g passes a tolerance", c.name, d)
		}
	}
	if d := MaxAbsDiff([]float64{1, 2}, []float64{1, 2.5}); d != 0.5 || !Within(d, 0.5) {
		t.Errorf("finite MaxAbsDiff = %g", d)
	}
	if Within(0, nan) {
		t.Error("a NaN tolerance passes")
	}
}

func TestPotrfReconstruction(t *testing.T) {
	const n = 16
	a := spdBlock(8, n)
	orig := append([]float64(nil), a...)
	if err := Potrf(a, n); err != nil {
		t.Fatal(err)
	}
	// Reconstruct L·Lᵀ.
	rec := make([]float64, n*n)
	GemmSubTransB(rec, a, a, n)
	for i := range rec {
		rec[i] = -rec[i]
	}
	if d := MaxAbsDiff(rec, orig); d > 1e-9*FrobNorm(orig) {
		t.Fatalf("L·Lᵀ differs from A by %g", d)
	}
	// Upper triangle must be zeroed.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a[i*n+j] != 0 {
				t.Fatal("upper triangle not zeroed")
			}
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := []float64{1, 0, 0, -1} // eigenvalue -1
	if err := Potrf(a, 2); err == nil {
		t.Fatal("indefinite matrix must be rejected")
	}
}

// trsmRef is the one-row-at-a-time loop TrsmRightLowerTrans replaced, kept
// verbatim as the bitwise reference for the row-blocked kernel.
func trsmRef(l, x []float64, n int) {
	for i := 0; i < n; i++ {
		xi := x[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			s := xi[j]
			for k := 0; k < j; k++ {
				s -= xi[k] * l[j*n+k]
			}
			xi[j] = s / l[j*n+j]
		}
	}
}

// TestTrsmRightLowerTrans holds the row-blocked solve to the reference loop
// bit for bit: every n from 1 to 65 (every row count mod 4), a factored SPD
// L and a random L, right-hand sides finite and salted with ±0, subnormals,
// ±Inf and NaN. It also checks the solve against its definition, X·Lᵀ = B.
func TestTrsmRightLowerTrans(t *testing.T) {
	for n := 1; n <= 65; n++ {
		seed := uint64(100 * n)
		factored := spdBlock(seed, n)
		if err := Potrf(factored, n); err != nil {
			t.Fatal(err)
		}
		for _, special := range []bool{false, true} {
			blk := randBlock
			if special {
				blk = specialBlock
			}
			for _, l := range [][]float64{factored, blk(seed+1, n)} {
				b := blk(seed+2, n)
				got, want := append([]float64(nil), b...), append([]float64(nil), b...)
				TrsmRightLowerTrans(l, got, n)
				trsmRef(l, want, n)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d special=%v: X[%d] = %x, reference %x", n, special, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
	const n = 8
	a := spdBlock(9, n)
	if err := Potrf(a, n); err != nil {
		t.Fatal(err)
	}
	b := randBlock(10, n)
	orig := append([]float64(nil), b...)
	TrsmRightLowerTrans(a, b, n)
	// rec -= X·Lᵀ, negated, must give back B.
	rec := make([]float64, n*n)
	GemmSubTransB(rec, b, a, n)
	for i := range rec {
		rec[i] = -rec[i]
	}
	if d := MaxAbsDiff(rec, orig); d > 1e-9*FrobNorm(orig) {
		t.Fatalf("trsm residual %g", d)
	}
}

func TestLu0SplitReconstruct(t *testing.T) {
	const n = 12
	a := dominantBlock(11, n)
	orig := append([]float64(nil), a...)
	if err := Lu0(a, n); err != nil {
		t.Fatal(err)
	}
	l, u := SplitLU(a, n)
	rec := make([]float64, n*n)
	GemmAdd(rec, l, u, n)
	if d := MaxAbsDiff(rec, orig); d > 1e-9*FrobNorm(orig) {
		t.Fatalf("L·U residual %g", d)
	}
}

func TestLu0ZeroPivot(t *testing.T) {
	a := []float64{0, 1, 1, 0}
	if err := Lu0(a, 2); err == nil {
		t.Fatal("zero pivot must error")
	}
}

func TestFwdSolvesUnitLower(t *testing.T) {
	const n = 8
	diag := dominantBlock(12, n)
	if err := Lu0(diag, n); err != nil {
		t.Fatal(err)
	}
	l, _ := SplitLU(diag, n)
	b := randBlock(13, n)
	orig := append([]float64(nil), b...)
	Fwd(diag, b, n)
	rec := make([]float64, n*n)
	GemmAdd(rec, l, b, n)
	if d := MaxAbsDiff(rec, orig); d > 1e-9*FrobNorm(orig) {
		t.Fatalf("fwd residual %g", d)
	}
}

func TestBdivSolvesUpperRight(t *testing.T) {
	const n = 8
	diag := dominantBlock(14, n)
	if err := Lu0(diag, n); err != nil {
		t.Fatal(err)
	}
	_, u := SplitLU(diag, n)
	b := randBlock(15, n)
	orig := append([]float64(nil), b...)
	Bdiv(diag, b, n)
	rec := make([]float64, n*n)
	GemmAdd(rec, b, u, n)
	if d := MaxAbsDiff(rec, orig); d > 1e-9*FrobNorm(orig) {
		t.Fatalf("bdiv residual %g", d)
	}
}

func TestFFTRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256} {
		r := xrand.New(uint64(n))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = x[i]
		}
		FFTRadix2(x, false)
		FFTRadix2(x, true)
		for i := range x {
			x[i] /= complex(float64(n), 0)
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d roundtrip error at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// DFT of an impulse is all-ones; DFT of a constant is an impulse.
	x := []complex128{1, 0, 0, 0}
	FFTRadix2(x, false)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse DFT[%d] = %v", i, v)
		}
	}
	y := []complex128{1, 1, 1, 1}
	FFTRadix2(y, false)
	if cmplx.Abs(y[0]-4) > 1e-12 || cmplx.Abs(y[1]) > 1e-12 {
		t.Fatalf("constant DFT = %v", y)
	}
}

func TestFFTParseval(t *testing.T) {
	const n = 128
	r := xrand.New(20)
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
		timeE += real(x[i]) * real(x[i])
	}
	FFTRadix2(x, false)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-6*timeE {
		t.Fatalf("Parseval violated: %g vs %g", freqE/float64(n), timeE)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two length must panic")
		}
	}()
	FFTRadix2(make([]complex128, 3), false)
}

func TestPropertyLUThenSolveConsistent(t *testing.T) {
	// Fwd+Bdiv against a full-rank diag block behave like applying the
	// factor inverses: GemmSub of recomposition matches.
	f := func(seed uint64) bool {
		const n = 6
		diag := dominantBlock(seed, n)
		if err := Lu0(diag, n); err != nil {
			return false
		}
		b := randBlock(seed+1, n)
		fw := append([]float64(nil), b...)
		Fwd(diag, fw, n)
		l, _ := SplitLU(diag, n)
		rec := make([]float64, n*n)
		GemmAdd(rec, l, fw, n)
		return MaxAbsDiff(rec, b) < 1e-8*(1+FrobNorm(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGemmAdd32(b *testing.B) {
	const n = 32
	x, y, z := randBlock(1, n), randBlock(2, n), randBlock(3, n)
	b.SetBytes(3 * int64(n) * int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmAdd(z, x, y, n)
	}
}

func BenchmarkGemmSubTransB32(b *testing.B) {
	const n = 32
	x, y, z := randBlock(1, n), randBlock(2, n), randBlock(3, n)
	b.SetBytes(3 * int64(n) * int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmSubTransB(z, x, y, n)
	}
}

func BenchmarkTrsm32(b *testing.B) {
	const n = 32
	l := spdBlock(4, n)
	if err := Potrf(l, n); err != nil {
		b.Fatal(err)
	}
	src := randBlock(5, n)
	x := make([]float64, n*n)
	b.SetBytes(2 * int64(n) * int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		TrsmRightLowerTrans(l, x, n)
	}
}

func BenchmarkPotrf32(b *testing.B) {
	const n = 32
	src := spdBlock(4, n)
	a := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, src)
		if err := Potrf(a, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT1K(b *testing.B) {
	const n = 1024
	r := xrand.New(5)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFTRadix2(x, i%2 == 1)
	}
}
