// Package fft implements the 2-D FFT benchmark (Table I: matrix 16384×16384
// complex doubles, block 16384×128): a panel-parallel two-dimensional
// transform — FFT all rows, transpose, FFT all rows again (the original
// columns), transpose back. Each panel of R rows is one buffer; the
// transpose tasks read every input panel, making this one of the paper's
// coarse-grained, low-task-count workloads (more replication under App_FIT,
// §V-A1).
package fft

import (
	"fmt"
	"math/cmplx"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/rt"
	"appfit/internal/xrand"
)

// Params sizes the workload: an N×N complex matrix in Nb = N/R panels of R
// rows.
type Params struct {
	N, R int
}

// Nb returns the panel count.
func (p Params) Nb() int { return p.N / p.R }

// ParamsFor returns parameters at a scale.
func ParamsFor(s workload.Scale) Params {
	switch s {
	case workload.Tiny:
		return Params{N: 64, R: 16}
	case workload.Medium:
		return Params{N: 2048, R: 64}
	default:
		return Params{N: 512, R: 32}
	}
}

// W is the FFT workload.
type W struct{}

// New returns the workload.
func New() workload.Workload { return W{} }

// Name implements workload.Workload.
func (W) Name() string { return "fft" }

// Distributed implements workload.Workload.
func (W) Distributed() bool { return false }

// Description implements workload.Workload.
func (W) Description() string { return "Fast Fourier Transform" }

// PaperSize implements workload.Workload.
func (W) PaperSize() string {
	return "Matrix size 16384x16384 complex doubles, block size 16384x128"
}

// InputBytes implements workload.Workload.
func (W) InputBytes(s workload.Scale) int64 {
	p := ParamsFor(s)
	return int64(p.N) * int64(p.N) * 16
}

// fftRows transforms each of the R rows (length N) of panel p in place.
func fftRows(panel []complex128, rows, n int) {
	for r := 0; r < rows; r++ {
		kern.FFTRadix2(panel[r*n:(r+1)*n], false)
	}
}

// transposeInto writes panel dst (rows dstIdx*R..) of the transposed matrix
// from the full set of source panels.
func transposeInto(dst []complex128, srcs [][]complex128, dstIdx, rows, n int) {
	for r := 0; r < rows; r++ {
		col := dstIdx*rows + r // source column index
		for c := 0; c < n; c++ {
			srcPanel := srcs[c/rows]
			dst[r*n+c] = srcPanel[(c%rows)*n+col]
		}
	}
}

// Reference computes the 2-D FFT serially with the identical panel
// algorithm, for bit-comparable verification.
func Reference(data []complex128, p Params) []complex128 {
	n, rows, nb := p.N, p.R, p.Nb()
	panels := make([][]complex128, nb)
	for i := range panels {
		panels[i] = append([]complex128(nil), data[i*rows*n:(i+1)*rows*n]...)
	}
	for i := range panels {
		fftRows(panels[i], rows, n)
	}
	tp := make([][]complex128, nb)
	for j := range tp {
		tp[j] = make([]complex128, rows*n)
		transposeInto(tp[j], panels, j, rows, n)
	}
	for j := range tp {
		fftRows(tp[j], rows, n)
	}
	out := make([]complex128, n*n)
	final := make([][]complex128, nb)
	for i := range final {
		final[i] = make([]complex128, rows*n)
		transposeInto(final[i], tp, i, rows, n)
		copy(out[i*rows*n:], final[i])
	}
	return out
}

// graph states the transform's task graph: FFT every row panel of P,
// transpose into Q, FFT Q's panels, transpose back into P. Panel i lives on
// node i mod nodes. A transpose declares one slab of each source panel (the
// part it reads) in the job, while the runtime sizes it from the whole
// panels it is handed.
func graph(g *workload.Graph, p Params) {
	n, rows, nb := int64(p.N), int64(p.R), p.Nb()
	panelBytes := rows * n * 16
	key := func(arr rune, i int) workload.Region { return workload.Region{Arr: arr, I: int32(i)} }
	// 5·N·log2(N) flops per row FFT.
	log2n := 0
	for v := p.N; v > 1; v >>= 1 {
		log2n++
	}
	fftFlops := 5 * rows * n * int64(log2n)
	var rowFFT rt.TaskFunc
	transpose := func(int) rt.TaskFunc { return nil }
	if g.Runs() {
		rowFFT = func(ctx *rt.Ctx) { fftRows(ctx.C128(0), p.R, p.N) }
		transpose = func(dst int) rt.TaskFunc {
			return func(ctx *rt.Ctx) {
				srcs := make([][]complex128, nb)
				for i := range srcs {
					srcs[i] = ctx.C128(i + 1)
				}
				transposeInto(ctx.C128(0), srcs, dst, p.R, p.N)
			}
		}
	}
	// stage emits one transpose pass: panel j of dst from every panel of src.
	var accs []workload.Acc
	stage := func(label string, dst, src rune) {
		for j := 0; j < nb; j++ {
			accs = append(accs[:0], workload.WAcc(key(dst, j), panelBytes))
			for i := 0; i < nb; i++ {
				accs = append(accs, workload.RAcc(key(src, i), panelBytes/int64(nb)))
			}
			g.Task(label, j%g.Nodes(), 0, 2*panelBytes, transpose(j), accs...)
		}
	}
	for i := 0; i < nb; i++ {
		g.Task("fft-rows", i%g.Nodes(), fftFlops, panelBytes, rowFFT, workload.RWAcc(key('P', i), panelBytes))
	}
	stage("transpose", 'Q', 'P')
	for j := 0; j < nb; j++ {
		g.Task("fft-cols", j%g.Nodes(), fftFlops, panelBytes, rowFFT, workload.RWAcc(key('Q', j), panelBytes))
	}
	stage("transpose-back", 'P', 'Q')
}

// BuildRT implements workload.Workload.
func (W) BuildRT(r *rt.Runtime, s workload.Scale) workload.Verifier {
	p := ParamsFor(s)
	n, rows, nb := p.N, p.R, p.Nb()
	input := make([]complex128, n*n)
	rng := xrand.New(0xFF7)
	for i := range input {
		input[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	P := make([]buffer.C128, nb)
	Q := make([]buffer.C128, nb)
	for i := 0; i < nb; i++ {
		P[i] = buffer.NewC128(rows * n)
		copy(P[i], input[i*rows*n:(i+1)*rows*n])
		Q[i] = buffer.NewC128(rows * n)
	}
	graph(workload.NewRTGraph(r, func(reg workload.Region) buffer.Buffer {
		if reg.Arr == 'P' {
			return P[reg.I]
		}
		return Q[reg.I]
	}), p)
	return func() error {
		want := Reference(input, p)
		for i := 0; i < nb; i++ {
			for k := 0; k < rows*n; k++ {
				if d := cmplx.Abs(P[i][k] - want[i*rows*n+k]); d > 1e-9 {
					return fmt.Errorf("fft: panel %d elem %d off by %g", i, k, d)
				}
			}
		}
		return nil
	}
}

// BuildJob implements workload.Workload.
func (w W) BuildJob(s workload.Scale, nodes int, cm workload.CostModel) cluster.Job {
	p := ParamsFor(s)
	g := workload.NewJobGraph(w.Name(), w.InputBytes(s), 4*p.Nb(), nodes, cm)
	graph(g, p)
	return g.Job()
}
