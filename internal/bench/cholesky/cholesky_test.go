package cholesky

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sync"
	"testing"

	"appfit/internal/bench/kern"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/rt"
)

func TestTaskCountFormula(t *testing.T) {
	// Against a direct enumeration of the four loops.
	for _, nb := range []int{2, 4, 7, 12} {
		p := Params{Nb: nb, B: 4}
		count := 0
		for k := 0; k < nb; k++ {
			count++ // potrf
			for i := k + 1; i < nb; i++ {
				count++ // trsm
			}
			for i := k + 1; i < nb; i++ {
				count++ // syrk
				for j := k + 1; j < i; j++ {
					count++ // gemm
				}
			}
		}
		if p.Tasks() != count {
			t.Fatalf("Nb=%d: formula %d, enumerated %d", nb, p.Tasks(), count)
		}
	}
}

func TestSPDConstruction(t *testing.T) {
	p := Params{Nb: 3, B: 8}
	tiles := SPD(p)
	if len(tiles) != 3 || len(tiles[2]) != 3 || len(tiles[0]) != 1 {
		t.Fatal("lower-triangular tile shape wrong")
	}
	// Diagonal tiles symmetric with strong diagonal.
	for k := 0; k < p.Nb; k++ {
		d := tiles[k][k]
		for a := 0; a < p.B; a++ {
			for b := 0; b < a; b++ {
				if d[a*p.B+b] != d[b*p.B+a] {
					t.Fatalf("tile %d not symmetric", k)
				}
			}
			if d[a*p.B+a] < float64(p.Nb*p.B)/2 {
				t.Fatalf("tile %d diagonal too weak: %g", k, d[a*p.B+a])
			}
		}
	}
}

// digest is the sha256 of a tile array's Float64bits, tile by tile in row
// order, little-endian.
func digest(tiles [][]buffer.F64) string {
	h := sha256.New()
	var b [8]byte
	for _, row := range tiles {
		for _, t := range row {
			for _, v := range t {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSPDKnownValues pins SPD's bits at the sizes the workloads factorize:
// Tiny, Small, the dist-world grid and DistConfig's default.
func TestSPDKnownValues(t *testing.T) {
	for _, c := range []struct {
		p    Params
		want string
	}{
		{ParamsFor(workload.Tiny), "abba6c8b168de611ef6b149b34457569422131d877dddf113d3d3dc6622f3390"},
		{ParamsFor(workload.Small), "153dea2c97e467a5421a9c7f4cccecfbcebffdd2eaa164b7addf44801f60cb14"},
		{Params{Nb: 16, B: 16}, "2eeb08950c0cc4850becae0f068fa45d593da026ed20a87bdd5d146fa9b2cfd0"},
		{Params{Nb: 8, B: 8}, "8933f6334c4e2706c3e3a1b186b2f89cd8743adc8e4fcd7141334a7587c30019"},
	} {
		if got := digest(SPD(c.p)); got != c.want {
			t.Errorf("SPD(%+v) digest %s, want %s", c.p, got, c.want)
		}
	}
}

func TestJobShape(t *testing.T) {
	p := ParamsFor(workload.Tiny)
	job := W{}.BuildJob(workload.Tiny, 1, workload.DefaultCostModel())
	if len(job.Tasks) != p.Tasks() {
		t.Fatalf("job %d tasks, want %d", len(job.Tasks), p.Tasks())
	}
	// The first task is the first potrf (a root); the last gemm/syrk of
	// the final iteration depends on earlier work.
	if len(job.Tasks[0].Deps) != 0 {
		t.Fatal("first potrf must be a root")
	}
	if len(job.Tasks[len(job.Tasks)-1].Deps) == 0 {
		t.Fatal("final task must have dependencies")
	}
}

// TestVerifyRejectsNaN feeds the verifier a correct factor with one NaN in
// it; the residual check must fail rather than skip the NaN.
func TestVerifyRejectsNaN(t *testing.T) {
	p := Params{Nb: 3, B: 8}
	tiles := SPD(p)
	orig := clone2d(tiles)
	if err := FactorSerial(tiles, p); err != nil {
		t.Fatal(err)
	}
	if err := verify(tiles, orig, p); err != nil {
		t.Fatalf("clean factorization rejected: %v", err)
	}
	tiles[2][1][5] = math.NaN()
	if err := verify(tiles, orig, p); err == nil {
		t.Fatal("a NaN in a factor tile was accepted")
	}
}

// TestFailedFactorUnderReplication runs a matrix whose first diagonal tile
// is negative fully replicated on two workers: both attempts of potrf(0)
// fail, concurrently, and the verifier must report the kernel's error.
func TestFailedFactorUnderReplication(t *testing.T) {
	p := Params{Nb: 3, B: 4}
	orig := SPD(p)
	for x := range orig[0][0] {
		orig[0][0][x] = -1
	}
	r := rt.New(rt.Config{Workers: 2, Selector: core.ReplicateAll{}})
	verifyRT := build(r, p, orig)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := verifyRT(); !errors.Is(err, kern.ErrNumeric) {
		t.Fatalf("verifier returned %v, want a kern.ErrNumeric", err)
	}
}

// TestSPDMemoIsolation: the memo spd keeps is never written through — not
// by a caller scribbling on SPD's copy, not by a factorization on the
// runtime — and concurrent SPD and BuildRT calls share it without a race.
func TestSPDMemoIsolation(t *testing.T) {
	p := ParamsFor(workload.Tiny)
	want := digest(spd(p))
	mine := SPD(p)
	for _, row := range mine {
		for _, tile := range row {
			clear(tile)
		}
	}
	if got := digest(SPD(p)); got != want {
		t.Fatalf("SPD after a caller wrote its copy: digest %s, want %s", got, want)
	}
	if got := digest(spd(p)); got != want {
		t.Fatalf("memo after a caller wrote its copy: digest %s, want %s", got, want)
	}

	r := rt.New(rt.Config{Workers: 2})
	verifyRT := W{}.BuildRT(r, workload.Tiny)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := verifyRT(); err != nil {
		t.Fatal(err)
	}
	if got := digest(spd(p)); got != want {
		t.Fatalf("memo after a factorization: digest %s, want %s", got, want)
	}

	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				if got := digest(SPD(p)); got != want {
					t.Errorf("concurrent SPD: digest %s, want %s", got, want)
				}
				return
			}
			r := rt.New(rt.Config{Workers: 1})
			verifyRT := W{}.BuildRT(r, workload.Tiny)
			if err := r.Shutdown(); err != nil {
				t.Error(err)
			} else if err := verifyRT(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := digest(spd(p)); got != want {
		t.Fatalf("memo after concurrent builds: digest %s, want %s", got, want)
	}
}
