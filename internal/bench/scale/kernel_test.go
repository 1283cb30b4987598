package scale

import (
	"testing"

	"appfit/internal/bench/kern"
	"appfit/internal/buffer"
	"appfit/internal/xrand"
)

// BenchmarkKernel is the loops under a cholesky task, 0 allocs/op: one 32×32
// C -= A·Bᵀ tile update (the gemm and syrk body) and one 32×32 X·Lᵀ = B
// solve (the trsm body, B restored before each solve).
func BenchmarkKernel(b *testing.B) {
	const n = 32
	r := xrand.New(1)
	blk := func() []float64 {
		x := make([]float64, n*n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		return x
	}
	x, y, z := blk(), blk(), blk()
	b.Run("gemm-transb-32", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(3 * n * n * 8)
		for i := 0; i < b.N; i++ {
			kern.GemmSubTransB(z, x, y, n)
		}
	})
	// A lower-triangular L with a dominant diagonal keeps X finite.
	l := blk()
	for j := 0; j < n; j++ {
		l[j*n+j] = n
	}
	w := make([]float64, n*n)
	b.Run("trsm-32", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(2 * n * n * 8)
		for i := 0; i < b.N; i++ {
			copy(w, y)
			kern.TrsmRightLowerTrans(l, w, n)
		}
	})
}

// BenchmarkCompare is Figure 2's synchronization point: one EqualTo of two
// equal 24 KB buffers of each kind (24 KB is a stream task's arguments at
// Small, the shape benchmark's vote units time) — the compare a replicated
// task's outputs and every vote pay — 0 allocs/op.
func BenchmarkCompare(b *testing.B) {
	const size = 24 << 10
	r := xrand.New(2)
	for _, c := range []struct {
		name string
		buf  buffer.Buffer
	}{
		{"f64-24KB", buffer.NewF64(size / 8)},
		{"c128-24KB", buffer.NewC128(size / 16)},
		{"u8-24KB", buffer.NewU8(size)},
	} {
		for i := int64(0); i < c.buf.BitLen(); i += 7 {
			if r.Intn(2) == 0 {
				c.buf.FlipBit(i)
			}
		}
		other := c.buf.Clone()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if !c.buf.EqualTo(other) {
					b.Fatal("equal buffers compare unequal")
				}
			}
		})
	}
}
