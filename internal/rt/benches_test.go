package rt_test

import (
	"testing"

	"appfit/internal/bench"
	"appfit/internal/bench/workload"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
)

// TestBenchesVerifyOnPoisonedLeases runs all nine Table-I task graphs —
// every buffer type a task argument has, among them fft's C128 and perlin's
// U8 — completely replicated under 5 % DUE + 5 % SDC per attempt, on a pool
// that scribbles over what it takes back (TestMain). Each must still verify
// bitwise and return every lease.
func TestBenchesVerifyOnPoisonedLeases(t *testing.T) {
	for _, w := range bench.All() {
		t.Run(w.Name(), func(t *testing.T) {
			inj := fault.NewFixedRate(0x1ea5e, 0.05, 0.05)
			r := rt.New(rt.Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: inj})
			verify := w.BuildRT(r, workload.Tiny)
			if err := r.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			if st.Reexecutions == 0 {
				t.Fatal("no fault was injected — test is vacuous")
			}
			if st.Pool.Leases != st.Pool.Returns || st.Pool.Hits == 0 {
				t.Fatalf("pool %+v: want every lease returned and some reused", st.Pool)
			}
		})
	}
}
