package dist_test

import (
	"testing"

	"appfit/internal/bench/cholesky"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

// TestCholeskyLeaseBalance runs the block-cyclic factorization — row and
// column broadcasts on sub-communicators, every tile kernel replicated under
// injected SDC and DUE — on this binary's poisoned World pool (see TestMain)
// and checks both ends of the lease discipline: the tiles still equal the
// serial reference bitwise, and every payload and engine copy the World took
// from the pool is back after Shutdown.
func TestCholeskyLeaseBalance(t *testing.T) {
	topo, err := simnet.BlockTopology(8, 2, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewWorld(dist.Config{Ranks: 8, Topology: topo, RT: func(rank int) rt.Config {
		return rt.Config{
			Workers:  2,
			Selector: core.ReplicateAll{},
			Injector: fault.NewFixedRate(uint64(rank)*13+1, 0.05, 0.05),
		}
	}})
	d, err := cholesky.BuildDist(w.Comm(), cholesky.DistConfig{Nb: 7, B: 4, Pr: 2, Pc: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Pool.Leases != st.Pool.Returns {
		t.Fatalf("%d leased, %d returned", st.Pool.Leases, st.Pool.Returns)
	}
	if st.Pool.Leases < w.MessagesSent() || st.SDCDetected+st.DUERecovered == 0 {
		t.Fatalf("%d leases for %d payloads, %d SDC, %d DUE: the run exercised neither books nor faults",
			st.Pool.Leases, w.MessagesSent(), st.SDCDetected, st.DUERecovered)
	}
}
