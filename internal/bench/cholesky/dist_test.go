package cholesky

import (
	"errors"
	"testing"

	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

// faultyWorld builds an n-rank World whose tile kernels run replicated under
// injected SDC and DUE — the regime the distributed factorization must stay
// bitwise-correct in. perNode > 0 adds a block topology so communicators
// auto-select hierarchical collectives.
func faultyWorld(t *testing.T, n, perNode int) *dist.World {
	t.Helper()
	cfg := dist.Config{
		Ranks: n,
		RT: func(rank int) rt.Config {
			return rt.Config{
				Workers:  2,
				Selector: core.ReplicateAll{},
				Injector: fault.NewFixedRate(uint64(rank)*13+1, 0.05, 0.05),
			}
		},
	}
	if perNode > 0 {
		top, err := simnet.BlockTopology(n, perNode, simnet.MemoryBus(), simnet.Marenostrum())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology = top
	}
	return dist.NewWorld(cfg)
}

func TestDistCholeskyBitwiseFlat(t *testing.T) {
	// 2D block-cyclic factorization on a flat 4-rank world, tile kernels
	// replicated under injected faults: the result must equal the serial
	// factorization bit for bit, and the broadcasts must move exactly the
	// flat message count the build predicts.
	w := faultyWorld(t, 4, 0)
	d, err := BuildDist(w.Comm(), DistConfig{Nb: 6, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Pr != 2 || d.Pc != 2 {
		t.Fatalf("default grid = %d×%d, want 2×2", d.Pr, d.Pc)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := w.MessagesSent(); got != uint64(d.msgs) {
		t.Fatalf("messages = %d, want %d", got, d.msgs)
	}
}

func TestDistCholeskyBitwisePlaced(t *testing.T) {
	// Same factorization on a placed world (8 ranks, 2 per node): the row
	// and column sub-communicators auto-select hierarchical broadcasts, and
	// the tiles must still match the serial reference bitwise.
	w := faultyWorld(t, 8, 2)
	d, err := BuildDist(w.Comm(), DistConfig{Nb: 7, B: 4, Pr: 2, Pc: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDistCholeskySingleRank(t *testing.T) {
	// A 1×1 grid degenerates to the serial build: no broadcasts at all.
	w := dist.NewWorld(dist.Config{Ranks: 1})
	d, err := BuildDist(w.Comm(), DistConfig{Nb: 4, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.msgs != 0 || w.MessagesSent() != uint64(0) {
		t.Fatalf("1-rank build moved %d predicted / %d actual messages, want 0", d.msgs, w.MessagesSent())
	}
}

func TestDistCholeskyGridValidation(t *testing.T) {
	w := dist.NewWorld(dist.Config{Ranks: 4})
	if _, err := BuildDist(w.Comm(), DistConfig{Pr: 3, Pc: 1}); !errors.Is(err, ErrGrid) {
		t.Fatalf("3×1 grid on 4 ranks: err = %v, want ErrGrid", err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
