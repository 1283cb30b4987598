package cluster

import (
	"errors"
	"reflect"
	"testing"

	"appfit/internal/place"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// chattyPairsJob builds a job on 4 nodes where nodes (0,2) and (1,3) pass
// a heavy block back and forth iters times: the worst case for a placement
// that co-locates (0,1) and (2,3), the best case for one co-locating the
// chatty pairs.
func chattyPairsJob(iters int, bytes int64) Job {
	j := Job{Name: "chatty-pairs"}
	prev := map[int]int{}
	add := func(node int, deps []int, depBytes []int64) int {
		j.Tasks = append(j.Tasks, Task{
			Label: "t", Node: node, Cost: 10, ArgBytes: bytes,
			Deps: deps, DepBytes: depBytes,
		})
		return len(j.Tasks) - 1
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		a := add(pair[0], nil, nil)
		for it := 0; it < iters; it++ {
			b := add(pair[1], []int{a}, []int64{bytes})
			a = add(pair[0], []int{b}, []int64{bytes})
		}
		prev[pair[0]] = a
	}
	return j
}

func TestJobProfileMirrorsSimTraffic(t *testing.T) {
	const bytes = 1 << 16
	job := chattyPairsJob(4, bytes)

	prof, err := JobProfile(job, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Each 0↔2 (and 1↔3) round trip is one delivery each way; no traffic
	// between the pairs.
	want := []place.Entry{
		{Src: 0, Dst: 2, Bytes: bytes, Count: 4},
		{Src: 1, Dst: 3, Bytes: bytes, Count: 4},
		{Src: 2, Dst: 0, Bytes: bytes, Count: 4},
		{Src: 3, Dst: 1, Bytes: bytes, Count: 4},
	}
	if got := prof.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("profile %+v, want %+v", got, want)
	}

	// The profile must match what the simulator actually charges on a
	// clean run: same message count, same payload bytes.
	res, err := Run(job, Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var msgs uint64
	var sent int64
	for _, e := range prof.Entries() {
		msgs += e.Count
		sent += int64(e.Count) * e.Bytes
	}
	if msgs != res.Messages || sent != res.BytesSent {
		t.Fatalf("profile (%d msgs, %d bytes) != sim (%d msgs, %d bytes)", msgs, sent, res.Messages, res.BytesSent)
	}

	// One delivery per consumer node, max payload: two consumers of one
	// producer on the same node must collapse into a single message.
	fan := Job{Name: "fanout", Tasks: []Task{
		{Label: "p", Node: 0, Cost: 1, ArgBytes: 8},
		{Label: "c1", Node: 1, Cost: 1, Deps: []int{0}, DepBytes: []int64{100}},
		{Label: "c2", Node: 1, Cost: 1, Deps: []int{0}, DepBytes: []int64{300}},
	}}
	fp, err := JobProfile(fan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fp.Entries(), []place.Entry{{Src: 0, Dst: 1, Bytes: 300, Count: 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fanout profile %+v, want %+v: 1 msg of the max payload 300", got, want)
	}
}

func TestAutoPlaceBeatsBadTopology(t *testing.T) {
	job := chattyPairsJob(8, 1<<20)
	// The adversarial placement: co-locate (0,1) and (2,3), so every
	// dependency edge crosses the wire.
	bad, err := simnet.NewTopology([]int{0, 0, 1, 1}, simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(job, Config{Nodes: 4, Topo: bad})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(job, Config{Nodes: 4, Topo: bad, AutoPlace: &place.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Placement == nil {
		t.Fatal("AutoPlace run must report its Placement")
	}
	if base.Placement != nil {
		t.Fatal("a plain run must not report a Placement")
	}
	if !opt.Placement.SameNode(0, 2) || !opt.Placement.SameNode(1, 3) {
		t.Fatalf("auto-placement failed to co-locate the chatty pairs: %v",
			[]int{opt.Placement.NodeOf(0), opt.Placement.NodeOf(1), opt.Placement.NodeOf(2), opt.Placement.NodeOf(3)})
	}
	if opt.WireBytes != 0 {
		t.Fatalf("optimized run still moved %d wire bytes", opt.WireBytes)
	}
	if opt.Makespan >= base.Makespan {
		t.Fatalf("optimized makespan %v must beat the bad placement's %v",
			simtime.Time(opt.Makespan), simtime.Time(base.Makespan))
	}
}

func TestAutoPlaceErrors(t *testing.T) {
	job := chattyPairsJob(1, 8)
	if _, err := Run(job, Config{Nodes: 4, AutoPlace: &place.Options{}}); !errors.Is(err, place.ErrOptions) {
		t.Fatalf("AutoPlace with no machine: err = %v, want place.ErrOptions", err)
	}
	if _, err := Run(job, Config{Nodes: 4, AutoPlace: &place.Options{PerNode: 2}}); err != nil {
		t.Fatalf("AutoPlace with explicit capacity and nil Topo must work: %v", err)
	}
}
