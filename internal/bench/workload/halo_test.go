package workload

import (
	"errors"
	"testing"

	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

func TestHaloMatchesSerialUnderFaults(t *testing.T) {
	const ranks = 4
	w := dist.NewWorld(dist.Config{Ranks: ranks, RT: func(rank int) rt.Config {
		return rt.Config{
			Workers:  2,
			Selector: core.ReplicateAll{},
			Injector: fault.NewFixedRate(uint64(rank)*7+1, 0.05, 0.05),
		}
	}})
	h, err := BuildHalo(w.Comm(), HaloConfig{Iters: 6, N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := w.MessagesSent(); got != h.messages() {
		t.Fatalf("MessagesSent = %d, want %d (replication must never duplicate a message)", got, h.messages())
	}
}

func TestHaloOnSubcommunicator(t *testing.T) {
	// The pattern is comm-scoped: build it on a 4-member subgroup of a
	// 6-rank world and the other two ranks stay untouched.
	w := dist.NewWorld(dist.Config{Ranks: 6})
	colors := []int{0, 0, 1, 0, 0, 1}
	keys := []int{0, 1, 0, 2, 3, 1}
	subs, err := w.Comm().Split(colors, keys)
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildHalo(subs[0], HaloConfig{Iters: 3, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := w.MessagesSent(); got != h.messages() {
		t.Fatalf("MessagesSent = %d, want %d", got, h.messages())
	}
}

func TestHaloRejectsOddComm(t *testing.T) {
	w := dist.NewWorld(dist.Config{Ranks: 3})
	if _, err := BuildHalo(w.Comm(), HaloConfig{}); !errors.Is(err, ErrOddHalo) {
		t.Fatalf("BuildHalo on 3 members: %v, want ErrOddHalo", err)
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestHaloPlacementPricing(t *testing.T) {
	// The pattern pairs comm rank ^ 1, so a block placement of two ranks
	// per node keeps every exchange on the memory bus, while a strided
	// placement sends every exchange over the wire. The placed fabric must
	// price them apart (the ISSUE-4 motivation: the flat model could not
	// distinguish a good placement from a terrible one), and both runs
	// must still match the serial reference bitwise.
	const ranks = 4
	const iters = 5
	const n = 512
	run := func(nodeOf []int) (*dist.Sim, *Halo) {
		topo, err := simnet.NewTopology(nodeOf, simnet.MemoryBus(), simnet.Marenostrum())
		if err != nil {
			t.Fatal(err)
		}
		sim := dist.NewSimTopology(topo)
		w := dist.NewWorld(dist.Config{Ranks: ranks, Transport: sim, Topology: topo})
		h, err := BuildHalo(w.Comm(), HaloConfig{Iters: iters, N: n})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
		return sim, h
	}
	good, _ := run([]int{0, 0, 1, 1}) // partners co-located
	bad, h := run([]int{0, 1, 0, 1})  // partners split across nodes
	if good.WireBytes() != 0 {
		t.Fatalf("co-located halo crossed the wire: %d bytes", good.WireBytes())
	}
	if want := int64(h.messages()) * n * 8; bad.WireBytes() != want {
		t.Fatalf("split halo wire bytes = %d, want %d", bad.WireBytes(), want)
	}
	if good.Now() >= bad.Now() {
		t.Fatalf("good placement %v must beat bad %v in virtual time", good.Now(), bad.Now())
	}
}

// messages is the number of messages the pattern moves: one per member per
// iteration.
func (h *Halo) messages() uint64 { return uint64(h.size) * uint64(h.cfg.Iters) }
