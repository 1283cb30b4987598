// Package kern provides the dense numeric kernels the Table-I benchmarks are
// built from: block LU and Cholesky factors, triangular solves, matrix
// multiply, and a radix-2 FFT. All matrix kernels operate on row-major n×n
// blocks stored in flat []float64 slices, the layout the workloads keep
// their tiles in. The paper's benchmarks call BLAS/CBLAS for these; pure-Go
// implementations preserve the task graphs and argument sizes, which is what
// the replication experiments depend on (DESIGN.md §2).
package kern

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// GemmSub computes C -= A·B for n×n row-major blocks.
func GemmSub(c, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			bk := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				ci[j] -= aik * bk[j]
			}
		}
	}
}

// GemmAdd computes C += A·B for n×n row-major blocks.
func GemmAdd(c, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		ci := c[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			bk := b[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// GemmSubTransB computes C -= A·Bᵀ for n×n row-major blocks. A and B may be
// the same block (SyrkSub); C must not overlap either.
//
// The kernel is register-blocked 2×2: each k-step loads a two-row pair of
// A and of B once and feeds four independent accumulators, one per output
// element. Every element is still its own dot product, summed k = 0…n−1
// from 0.0 and subtracted from C once, so C is bitwise what the plain
// one-accumulator loop gives. An odd last column takes a 2×1 tail and an
// odd last row the plain loop, with the same per-element order.
func GemmSubTransB(c, a, b []float64, n int) {
	i := 0
	for ; i+1 < n; i += 2 {
		a0, a1 := a[i*n:(i+1)*n], a[(i+1)*n:(i+2)*n]
		c0, c1 := c[i*n:(i+1)*n], c[(i+1)*n:(i+2)*n]
		j := 0
		for ; j+1 < n; j += 2 {
			b0, b1 := b[j*n:(j+1)*n], b[(j+1)*n:(j+2)*n]
			a1, b0, b1 := a1[:len(a0)], b0[:len(a0)], b1[:len(a0)]
			var s00, s01, s10, s11 float64
			for k, x0 := range a0 {
				x1, y0, y1 := a1[k], b0[k], b1[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s10 += x1 * y0
				s11 += x1 * y1
			}
			c0[j] -= s00
			c0[j+1] -= s01
			c1[j] -= s10
			c1[j+1] -= s11
		}
		if j < n {
			bj := b[j*n : (j+1)*n]
			a1, bj := a1[:len(a0)], bj[:len(a0)]
			var s0, s1 float64
			for k, x0 := range a0 {
				s0 += x0 * bj[k]
				s1 += a1[k] * bj[k]
			}
			c0[j] -= s0
			c1[j] -= s1
		}
	}
	if i < n {
		ai, ci := a[i*n:(i+1)*n], c[i*n:(i+1)*n]
		for j := range ci {
			bj := b[j*n : (j+1)*n][:len(ai)]
			s := 0.0
			for k, x := range ai {
				s += x * bj[k]
			}
			ci[j] -= s
		}
	}
}

// ErrNumeric is the sentinel wrapped by every numerical breakdown a
// kernel detects (non-SPD matrix, zero pivot), so drivers can errors.Is a
// kernel failure without matching message text.
var ErrNumeric = errors.New("kern: numerical breakdown")

// Potrf factors the n×n symmetric positive-definite block A in place into
// its lower Cholesky factor L (upper triangle zeroed). It returns an error
// if A is not positive definite.
func Potrf(a []float64, n int) error {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return fmt.Errorf("kern: matrix not positive definite: %w", ErrNumeric)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*n+j] = 0
		}
	}
	return nil
}

// TrsmRightLowerTrans solves X·Lᵀ = B in place (X overwrites B), with L the
// lower-triangular factor of a diagonal block: the Cholesky "trsm" kernel.
//
// The rows of X are independent, so the kernel solves four at a time: each
// load of L[j][k] feeds four independent chains instead of one. Every
// element is still B[i][j] minus X[i][k]·L[j][k] for k = 0…j−1 in order,
// then divided (not multiplied by a reciprocal) by L[j][j], so X is bitwise
// what the one-row loop gives. The last n mod 4 rows take that loop.
func TrsmRightLowerTrans(l, x []float64, n int) {
	i := 0
	for ; i+3 < n; i += 4 {
		x0, x1, x2, x3 := x[i*n:(i+1)*n], x[(i+1)*n:(i+2)*n], x[(i+2)*n:(i+3)*n], x[(i+3)*n:(i+4)*n]
		for j := 0; j < n; j++ {
			lj := l[j*n : j*n+j]
			y0, y1, y2, y3 := x0[:len(lj)], x1[:len(lj)], x2[:len(lj)], x3[:len(lj)]
			s0, s1, s2, s3 := x0[j], x1[j], x2[j], x3[j]
			for k, ljk := range lj {
				s0 -= y0[k] * ljk
				s1 -= y1[k] * ljk
				s2 -= y2[k] * ljk
				s3 -= y3[k] * ljk
			}
			d := l[j*n+j]
			x0[j], x1[j], x2[j], x3[j] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; i < n; i++ {
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

// SyrkSub computes C -= A·Aᵀ (full block update) for n×n blocks: the
// Cholesky "syrk" kernel applied to diagonal tiles.
func SyrkSub(c, a []float64, n int) {
	GemmSubTransB(c, a, a, n)
}

// Lu0 factors the n×n block A in place into L (unit lower) and U (upper)
// without pivoting: the SparseLU/Linpack diagonal kernel. It returns an
// error on a zero pivot.
func Lu0(a []float64, n int) error {
	for k := 0; k < n; k++ {
		p := a[k*n+k]
		if p == 0 {
			return fmt.Errorf("kern: zero pivot in LU: %w", ErrNumeric)
		}
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= p
			lik := a[i*n+k]
			if lik == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= lik * a[k*n+j]
			}
		}
	}
	return nil
}

// Fwd solves L·X = B in place (X overwrites B) with L the unit-lower factor
// of an Lu0'd diagonal block: the SparseLU "fwd" kernel.
func Fwd(diag, x []float64, n int) {
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			s := x[i*n+j]
			for k := 0; k < i; k++ {
				s -= diag[i*n+k] * x[k*n+j]
			}
			x[i*n+j] = s // unit diagonal
		}
	}
}

// Bdiv solves X·U = B in place (X overwrites B) with U the upper factor of
// an Lu0'd diagonal block: the SparseLU "bdiv" kernel.
func Bdiv(diag, x []float64, n int) {
	for i := 0; i < n; i++ {
		xi := x[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			s := xi[j]
			for k := 0; k < j; k++ {
				s -= xi[k] * diag[k*n+j]
			}
			xi[j] = s / diag[j*n+j]
		}
	}
}

// SplitLU extracts the unit-lower L and upper U factors from an Lu0'd block.
func SplitLU(a []float64, n int) (l, u []float64) {
	l = make([]float64, n*n)
	u = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				l[i*n+j] = 1
				u[i*n+j] = a[i*n+j]
			case i > j:
				l[i*n+j] = a[i*n+j]
			default:
				u[i*n+j] = a[i*n+j]
			}
		}
	}
	return l, u
}

// FFTRadix2 computes the in-place forward DFT of x (length a power of two)
// using the iterative Cooley-Tukey radix-2 algorithm. inverse=true computes
// the unscaled inverse transform (caller divides by len(x)).
func FFTRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic("kern: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -2.0
	if inverse {
		sign = 2.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wstep
			}
		}
	}
}

// MaxAbsDiff returns max |a[i]-b[i]|. A NaN difference makes it NaN and a
// length mismatch makes it +Inf, so a tolerance check through Within fails
// on either.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		m = max(m, math.Abs(a[i]-b[i])) // max propagates NaN; d > m would skip it
	}
	return m
}

// Within reports whether an error measure d is within tol. It is false when
// d or tol is NaN, which a "d > tol means failure" check would pass, so every
// verifier's tolerance check goes through it.
func Within(d, tol float64) bool { return d <= tol }

// FrobNorm returns the Frobenius norm of a.
func FrobNorm(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}
