// Live-replay property of the profile→evaluate pipeline, in an external
// test package because it drives real dist Worlds (dist imports place for
// Sim recording, so the in-package tests stay dist-free).
package place_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/dist"
	"appfit/internal/place"
	"appfit/internal/simnet"
	"appfit/internal/xrand"
)

// TestEvaluateMatchesLiveSim is optimizer property (b): place.Evaluate on
// a recorded halo profile reproduces — bitwise — the makespan and wire
// accounting of actually running that traffic through dist.Sim on the same
// topology. The live run charges messages in whatever order the schedule
// executes them; the meter's per-link accumulation is order-independent,
// so the offline replay must land on the identical numbers.
func TestEvaluateMatchesLiveSim(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := xrand.New(seed)
		ranks := 2 * (1 + rng.Intn(4)) // even, 2..8: halo pairs up
		nodes := 1 + rng.Intn(ranks)
		topo, err := simnet.NewTopology(
			randomAssign(rng, ranks, nodes), simnet.MemoryBus(), simnet.Marenostrum())
		if err != nil {
			t.Fatal(err)
		}

		sim := dist.NewSimTopology(topo)
		prof := place.NewProfile(ranks)
		sim.Record(prof)
		w := dist.NewWorld(dist.Config{Ranks: ranks, Transport: sim, Topology: topo})
		if _, err := workload.BuildHalo(w.Comm(), workload.HaloConfig{
			Iters: 1 + rng.Intn(6), N: 1 + rng.Intn(2048),
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}

		ev, err := place.Evaluate(prof, topo)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Makespan != sim.Now() {
			t.Logf("seed %d: replay makespan %d != live %d", seed, ev.Makespan, sim.Now())
			return false
		}
		if ev.WireBytes != sim.WireBytes() || ev.Messages != w.MessagesSent() || ev.BytesSent != sim.BytesSent() {
			t.Logf("seed %d: replay accounting (%d,%d,%d) != live (%d,%d,%d)", seed,
				ev.WireBytes, ev.Messages, ev.BytesSent,
				sim.WireBytes(), w.MessagesSent(), sim.BytesSent())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40} // each case spins up a whole World
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSimRecordAttachDetach locks the recorder's attach semantics: only
// traffic that flows while a profile is attached is captured. The
// transport is driven directly (sends are eager and synchronous at the
// transport boundary), so the before/during/after windows are exact.
func TestSimRecordAttachDetach(t *testing.T) {
	topo, err := simnet.MarenostrumTopology(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSimTopology(topo)

	sim.Send(dist.Match{Src: 0, Dst: 1}, buffer.NewF64(8)) // before attach
	prof := place.NewProfile(4)
	sim.Record(prof)
	sim.Send(dist.Match{Src: 2, Dst: 3}, buffer.NewF64(8)) // recorded
	sim.Record(nil)
	sim.Send(dist.Match{Src: 2, Dst: 3}, buffer.NewF64(8)) // after detach

	// Only the attached window's one 64-byte 2→3 send is recorded: neither
	// the pre-attach 0→1 send nor the post-detach repeat.
	if got, want := prof.Entries(), []place.Entry{{Src: 2, Dst: 3, Bytes: 64, Count: 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded %+v, want %+v", got, want)
	}
	if got := sim.BytesSent(); got != 3*64 {
		t.Fatalf("meter saw %d bytes, want three 64-byte sends (recording must not affect charging)", got)
	}
	sim.Close()
}

func randomAssign(rng *xrand.Rand, ranks, nodes int) []int {
	assign := make([]int, ranks)
	for r := range assign {
		assign[r] = rng.Intn(nodes)
	}
	return assign
}
