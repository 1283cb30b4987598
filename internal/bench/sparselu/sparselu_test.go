package sparselu

import (
	"errors"
	"math"
	"testing"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/rt"
)

func TestPresentDeterministicAndDiagonal(t *testing.T) {
	for i := 0; i < 32; i++ {
		if !Present(i, i) {
			t.Fatalf("diagonal block (%d,%d) must be present", i, i)
		}
	}
	if Present(3, 7) != Present(3, 7) {
		t.Fatal("presence must be deterministic")
	}
}

func TestPresentDensity(t *testing.T) {
	n, present := 64, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && Present(i, j) {
				present++
			}
		}
	}
	density := float64(present) / float64(n*n-n)
	if density < 0.5 || density > 0.7 {
		t.Fatalf("off-diagonal density %.2f, want ~0.6", density)
	}
}

func TestStructureIncludesFillIn(t *testing.T) {
	nb := 16
	fill := Structure(nb)
	// Fill superset of initial pattern.
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			if Present(i, j) && !fill[i][j] {
				t.Fatalf("fill lost original block (%d,%d)", i, j)
			}
		}
	}
	// Fill-in must actually occur for this pattern (the update bmod
	// writes blocks that start empty).
	extra := 0
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			if fill[i][j] && !Present(i, j) {
				extra++
			}
		}
	}
	if extra == 0 {
		t.Fatal("no fill-in: the sparse pattern degenerated")
	}
}

func TestStructureClosedUnderUpdate(t *testing.T) {
	// After symbolic factorization, every bmod (i,k)×(k,j) with both
	// operands filled must land on a filled block.
	nb := 12
	fill := Structure(nb)
	for k := 0; k < nb; k++ {
		for i := k + 1; i < nb; i++ {
			if !fill[i][k] {
				continue
			}
			for j := k + 1; j < nb; j++ {
				if fill[k][j] && !fill[i][j] {
					t.Fatalf("structure not closed: (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestParams(t *testing.T) {
	for _, s := range []workload.Scale{workload.Tiny, workload.Small, workload.Medium} {
		p := ParamsFor(s)
		if p.Nb < 2 || p.B < 2 {
			t.Fatalf("%v: degenerate params %+v", s, p)
		}
	}
}

// TestVerifyRejectsNaN factors a small matrix on the runtime, then feeds the
// verifier the factors with one NaN in them; the residual check must fail
// rather than skip the NaN.
func TestVerifyRejectsNaN(t *testing.T) {
	p := Params{Nb: 4, B: 4}
	fill := Structure(p.Nb)
	blocks, orig := matrix(p, fill)
	r := rt.New(rt.Config{Workers: 1})
	verifyRT := build(r, p, fill, blocks, orig)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := verifyRT(); err != nil {
		t.Fatalf("correct factorization rejected: %v", err)
	}
	blocks[1][1][6] = math.NaN()
	if err := verify(blocks, orig, p); err == nil {
		t.Fatal("a NaN in a factor block was accepted")
	}
}

// TestFailedFactorUnderReplication runs a matrix whose first diagonal block
// is zero fully replicated on two workers: both attempts of lu0(0) fail,
// concurrently, and the verifier must report the kernel's error.
func TestFailedFactorUnderReplication(t *testing.T) {
	p := Params{Nb: 4, B: 4}
	fill := Structure(p.Nb)
	blocks, orig := matrix(p, fill)
	clear(blocks[0][0])
	r := rt.New(rt.Config{Workers: 2, Selector: core.ReplicateAll{}})
	verifyRT := build(r, p, fill, blocks, orig)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := verifyRT(); !errors.Is(err, kern.ErrNumeric) {
		t.Fatalf("verifier returned %v, want a kern.ErrNumeric", err)
	}
}
