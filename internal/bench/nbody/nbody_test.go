package nbody

import (
	"math"
	"testing"

	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
)

func TestInitBlockDeterministic(t *testing.T) {
	a := make([]float64, 3*16)
	b := make([]float64, 3*16)
	InitBlock(a, 2, 16)
	InitBlock(b, 2, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("init must be deterministic")
		}
	}
	InitBlock(b, 3, 16)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different blocks must differ")
	}
}

func TestPartialForcesNewtonThirdLaw(t *testing.T) {
	// Total momentum change between two blocks must cancel: sum of forces
	// i←j equals minus sum of forces j←i (equal unit masses).
	const b = 8
	pi := make([]float64, 3*b)
	pj := make([]float64, 3*b)
	InitBlock(pi, 0, b)
	InitBlock(pj, 1, b)
	fij := make([]float64, 3*b)
	fji := make([]float64, 3*b)
	PartialForces(fij, pi, pj, b, b)
	PartialForces(fji, pj, pi, b, b)
	for d := 0; d < 3; d++ {
		var si, sj float64
		for k := 0; k < b; k++ {
			si += fij[3*k+d]
			sj += fji[3*k+d]
		}
		if math.Abs(si+sj) > 1e-9*(1+math.Abs(si)) {
			t.Fatalf("axis %d: momentum not conserved: %g vs %g", d, si, sj)
		}
	}
}

func TestSelfBlockForcesFinite(t *testing.T) {
	const b = 8
	p := make([]float64, 3*b)
	InitBlock(p, 0, b)
	f := make([]float64, 3*b)
	PartialForces(f, p, p, b, b)
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("self-interaction produced %g at %d (softening broken)", v, i)
		}
	}
}

func TestReduceSumsInOrder(t *testing.T) {
	acc := make([]float64, 3)
	Reduce(acc, [][]float64{{1, 2, 3}, {10, 20, 30}})
	if acc[0] != 11 || acc[1] != 22 || acc[2] != 33 {
		t.Fatalf("reduce = %v", acc)
	}
	// Reduce must overwrite, not accumulate across calls.
	Reduce(acc, [][]float64{{1, 1, 1}})
	if acc[0] != 1 {
		t.Fatalf("reduce did not reset: %v", acc)
	}
}

func TestIntegrateMovesBodies(t *testing.T) {
	pos := []float64{0, 0, 0}
	vel := []float64{1, 0, 0}
	acc := []float64{0, 1, 0}
	Integrate(pos, vel, acc, 1)
	if pos[0] == 0 {
		t.Fatal("x should advance with velocity")
	}
	if vel[1] == 0 {
		t.Fatal("vy should gain from acceleration")
	}
}

func TestReferenceStable(t *testing.T) {
	p := Params{N: 32, B: 8, Steps: 3}
	out := Reference(p)
	if len(out) != 3*p.N {
		t.Fatalf("reference length %d", len(out))
	}
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("reference diverged at %d: %g", i, v)
		}
	}
	// Determinism.
	out2 := Reference(p)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("reference not deterministic")
		}
	}
}

func TestParamsDivisibility(t *testing.T) {
	for _, s := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
		p := sizes[s]
		if p.N%p.B != 0 || p.Steps < 1 {
			t.Fatalf("%v: bad params %+v", s, p)
		}
	}
}

// TestVerifyRejectsNaN feeds the verifier the reference positions with one
// NaN in them; the tolerance check must fail rather than skip the NaN.
func TestVerifyRejectsNaN(t *testing.T) {
	p := Params{N: 32, B: 8, Steps: 2}
	ref := Reference(p)
	pos := make([]buffer.F64, p.nb())
	for i := range pos {
		pos[i] = append(buffer.F64(nil), ref[i*3*p.B:(i+1)*3*p.B]...)
	}
	if err := verify(pos, p); err != nil {
		t.Fatalf("reference positions rejected: %v", err)
	}
	pos[2][4] = math.NaN()
	if err := verify(pos, p); err == nil {
		t.Fatal("a NaN position was accepted")
	}
}
