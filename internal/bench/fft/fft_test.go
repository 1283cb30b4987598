package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/xrand"
)

func TestParamsPowersOfTwo(t *testing.T) {
	for _, s := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
		p := ParamsFor(s)
		if p.N&(p.N-1) != 0 {
			t.Fatalf("%v: N=%d not a power of two", s, p.N)
		}
		if p.N%p.R != 0 {
			t.Fatalf("%v: N %% R != 0", s)
		}
		if p.Nb() != p.N/p.R {
			t.Fatal("Nb wrong")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	p := Params{N: 32, R: 8}
	n, rows, nb := p.N, p.R, p.Nb()
	rng := xrand.New(4)
	panels := make([][]complex128, nb)
	orig := make([][]complex128, nb)
	for i := range panels {
		panels[i] = make([]complex128, rows*n)
		for k := range panels[i] {
			panels[i][k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		orig[i] = append([]complex128(nil), panels[i]...)
	}
	tp := make([][]complex128, nb)
	for j := range tp {
		tp[j] = make([]complex128, rows*n)
		transposeInto(tp[j], panels, j, rows, n)
	}
	back := make([][]complex128, nb)
	for i := range back {
		back[i] = make([]complex128, rows*n)
		transposeInto(back[i], tp, i, rows, n)
	}
	for i := range back {
		for k := range back[i] {
			if back[i][k] != orig[i][k] {
				t.Fatalf("transpose^2 != identity at panel %d elem %d", i, k)
			}
		}
	}
}

func TestReferenceMatchesDirect2D(t *testing.T) {
	// The panel algorithm must agree with a direct row-then-column 2-D
	// DFT on the full matrix.
	p := Params{N: 16, R: 4}
	n := p.N
	rng := xrand.New(9)
	data := make([]complex128, n*n)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := Reference(data, p)

	// Direct: FFT rows, then FFT columns in place.
	direct := append([]complex128(nil), data...)
	for r := 0; r < n; r++ {
		kern.FFTRadix2(direct[r*n:(r+1)*n], false)
	}
	col := make([]complex128, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			col[r] = direct[r*n+c]
		}
		kern.FFTRadix2(col, false)
		for r := 0; r < n; r++ {
			direct[r*n+c] = col[r]
		}
	}
	for i := range got {
		if cmplx.Abs(got[i]-direct[i]) > 1e-9 {
			t.Fatalf("panel 2D FFT disagrees with direct at %d: %v vs %v", i, got[i], direct[i])
		}
	}
}

func TestInputBytes(t *testing.T) {
	p := ParamsFor(workload.Tiny)
	if got := (W{}).InputBytes(workload.Tiny); got != int64(p.N)*int64(p.N)*16 {
		t.Fatalf("input bytes %d", got)
	}
}

// TestVerifyRejectsNaN feeds the verifier the reference transform with one
// NaN in it; the tolerance check must fail rather than skip the NaN.
func TestVerifyRejectsNaN(t *testing.T) {
	p := Params{N: 16, R: 4}
	rng := xrand.New(9)
	input := make([]complex128, p.N*p.N)
	for i := range input {
		input[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ref := Reference(input, p)
	size := p.R * p.N
	P := make([]buffer.C128, p.Nb())
	for i := range P {
		P[i] = append(buffer.C128(nil), ref[i*size:(i+1)*size]...)
	}
	if err := verify(P, input, p); err != nil {
		t.Fatalf("reference transform rejected: %v", err)
	}
	P[1][7] = complex(math.NaN(), 0)
	if err := verify(P, input, p); err == nil {
		t.Fatal("a NaN element was accepted")
	}
}
