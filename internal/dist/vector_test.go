package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

// vecLayout builds the dense (counts, displs, total) layout of a counts
// vector, the shape every test here uses: displacements are prefix sums.
func vecLayout(counts []int) (displs []int, total int) {
	displs = make([]int, len(counts))
	for i, cnt := range counts {
		displs[i] = total
		total += cnt
	}
	return displs, total
}

// allgathervReference assembles the full vector from per-member segments.
func allgathervReference(contrib [][]float64, counts, displs []int, total int) []float64 {
	ref := make([]float64, total)
	for j := range counts {
		copy(ref[displs[j]:displs[j]+counts[j]], contrib[j][displs[j]:displs[j]+counts[j]])
	}
	return ref
}

func TestAllgathervFlat(t *testing.T) {
	// Non-uniform segments including an empty one; after the ring every
	// member holds the full assembled vector, in exactly n(n-1) messages.
	const n = 4
	counts := []int{3, 0, 2, 5}
	displs, total := vecLayout(counts)
	w := NewWorld(Config{Ranks: n})
	bufs := make([]buffer.F64, n)
	contrib := make([][]float64, n)
	for i := range bufs {
		bufs[i] = buffer.NewF64(total)
		contrib[i] = make([]float64, total)
		for j := displs[i]; j < displs[i]+counts[i]; j++ {
			bufs[i][j] = float64(100*i + j)
			contrib[i][j] = bufs[i][j]
		}
	}
	w.Comm().Allgatherv(0, "v", bufs, counts, displs)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	ref := allgathervReference(contrib, counts, displs, total)
	for i := range bufs {
		for j := range ref {
			if bufs[i][j] != ref[j] {
				t.Fatalf("member %d vector = %v, want %v", i, bufs[i], ref)
			}
		}
	}
	if got := w.MessagesSent(); got != n*(n-1) {
		t.Fatalf("messages = %d, want %d", got, n*(n-1))
	}
}

func TestAllgathervValidation(t *testing.T) {
	mk := func() []buffer.F64 {
		return []buffer.F64{buffer.NewF64(4), buffer.NewF64(4), buffer.NewF64(4)}
	}
	cases := []struct {
		name    string
		bufs    []buffer.F64
		counts  []int
		displs  []int
		wantErr error
	}{
		{"short counts", mk(), []int{2, 2}, []int{0, 2}, ErrVectorArgs},
		{"negative count", mk(), []int{-1, 2, 2}, []int{0, 0, 2}, ErrVectorArgs},
		{"negative displ", mk(), []int{1, 1, 1}, []int{-1, 1, 2}, ErrVectorArgs},
		{"outside vector", mk(), []int{2, 1, 2}, []int{0, 2, 3}, ErrVectorArgs},
		{"overlap", mk(), []int{2, 2, 1}, []int{0, 1, 3}, ErrVectorArgs},
		{"ragged buffers", []buffer.F64{buffer.NewF64(4), buffer.NewF64(3), buffer.NewF64(4)},
			[]int{1, 1, 1}, []int{0, 1, 2}, ErrCollectiveArgs},
	}
	for _, tc := range cases {
		w := NewWorld(Config{Ranks: 3})
		w.Comm().Allgatherv(0, "v", tc.bufs, tc.counts, tc.displs)
		if err := worldErr(w); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if got := w.MessagesSent(); got != 0 {
			t.Errorf("%s: %d messages submitted after a validation failure", tc.name, got)
		}
		_ = w.Shutdown()
	}
}

func TestAllgathervHierMatchesFlat(t *testing.T) {
	// 8 ranks on 2 nodes: the hierarchical path must assemble the same
	// vector as the flat ring with the same n(n-1) message count — only the
	// placement of those messages differs.
	const n, perNode = 8, 4
	counts := []int{1, 4, 0, 2, 3, 1, 2, 2}
	displs, total := vecLayout(counts)
	run := func(placed bool) ([]buffer.F64, uint64) {
		var w *World
		if placed {
			w = blockWorld(t, n, perNode, true) // with replication + faults
		} else {
			w = NewWorld(Config{Ranks: n})
		}
		bufs := make([]buffer.F64, n)
		for i := range bufs {
			bufs[i] = buffer.NewF64(total)
			for j := displs[i]; j < displs[i]+counts[i]; j++ {
				bufs[i][j] = float64(100*i + j)
			}
		}
		if placed != w.Comm().Hierarchical() {
			t.Fatalf("placed=%v but Hierarchical()=%v", placed, w.Comm().Hierarchical())
		}
		w.Comm().Allgatherv(0, "v", bufs, counts, displs)
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return bufs, w.MessagesSent()
	}
	flat, flatMsgs := run(false)
	hier, hierMsgs := run(true)
	for i := 0; i < n; i++ {
		if !flat[i].EqualTo(hier[i]) {
			t.Fatalf("member %d: hier %v != flat %v", i, hier[i], flat[i])
		}
	}
	if flatMsgs != n*(n-1) || hierMsgs != n*(n-1) {
		t.Fatalf("messages flat=%d hier=%d, want both %d", flatMsgs, hierMsgs, n*(n-1))
	}
}

func TestAllreduceRabenseifnerMatchesGather(t *testing.T) {
	// Non-power-of-two member count exercises the pre/post fold; integer
	// data keeps the sub-range folds exact, so the result must equal the
	// gather's rank-order fold bitwise. Message count: pre+post 2(n-p) full
	// vectors plus 2·p·log2(p) half-cascade exchanges.
	const n, vlen = 6, 8
	run := func(rab bool) ([]buffer.F64, uint64) {
		w := NewWorld(Config{Ranks: n, RT: func(rank int) rt.Config {
			return rt.Config{
				Workers:  2,
				Selector: core.ReplicateAll{},
				Injector: fault.NewFixedRate(uint64(rank)*17+3, 0.1, 0.1),
			}
		}})
		bufs := make([]buffer.F64, n)
		for i := range bufs {
			bufs[i] = buffer.NewF64(vlen)
			for j := range bufs[i] {
				bufs[i][j] = float64(i + j)
			}
		}
		if rab {
			w.Comm().AllreduceRabenseifner(0, "v", bufs, OpSum)
		} else {
			w.Comm().AllreduceGather(0, "v", bufs, OpSum)
		}
		if err := w.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return bufs, w.MessagesSent()
	}
	gather, _ := run(false)
	rab, rabMsgs := run(true)
	for i := 0; i < n; i++ {
		if !gather[i].EqualTo(rab[i]) {
			t.Fatalf("member %d: rabenseifner %v != gather %v", i, rab[i], gather[i])
		}
	}
	// p = 4: 2 extras fold in and out (4 messages) + 2 rounds of halving and
	// 2 of doubling at 4 members each (16 messages).
	if want := uint64(20); rabMsgs != want {
		t.Fatalf("rabenseifner messages = %d, want %d", rabMsgs, want)
	}
}

func TestAllreduceAutoSelectsByBytes(t *testing.T) {
	// The dispatcher compares per-member payload BYTES: 64 KiB vectors must
	// take the Rabenseifner path (2·p·log2 p messages), not the tree
	// (p·log2 p) — distinguishable by message count alone at p = 4.
	const n = 4
	cases := []struct {
		name     string
		vlen     int
		wantMsgs uint64
	}{
		{"gather", 4, 2 * (n - 1)},                           // 32 B < tree crossover
		{"tree", TreeAllreduceCrossoverBytes / 8, 8},         // exactly the tree crossover
		{"rabenseifner", RabenseifnerCrossoverBytes / 8, 16}, // exactly the Rabenseifner crossover
		{"rabenseifner-large", RabenseifnerCrossoverBytes / 8 * 2, 16},
	}
	for _, tc := range cases {
		w := NewWorld(Config{Ranks: n})
		bufs := make([]buffer.F64, n)
		for i := range bufs {
			bufs[i] = buffer.NewF64(tc.vlen)
			for j := range bufs[i] {
				bufs[i][j] = float64(i)
			}
		}
		w.Comm().Allreduce(0, "v", bufs, OpSum)
		if err := w.Shutdown(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := w.MessagesSent(); got != tc.wantMsgs {
			t.Errorf("%s (vlen %d): messages = %d, want %d", tc.name, tc.vlen, got, tc.wantMsgs)
		}
		want := float64(0 + 1 + 2 + 3)
		for i := range bufs {
			if bufs[i][0] != want {
				t.Errorf("%s: member %d result %v, want %v", tc.name, i, bufs[i][0], want)
			}
		}
	}
}

func TestAllreduceRaggedPicksSmallestPayload(t *testing.T) {
	// Members' vectors differ in length: whatever algorithm the sizes would
	// select — and whichever variant is named — the call is rejected with
	// ErrCollectiveArgs and submits nothing. (Selection once keyed on the
	// smallest payload to dodge this; three 16 384-element vectors and one
	// of 9 000, all past the Rabenseifner crossover, then sliced past a
	// buffer's capacity inside a worker goroutine and killed the process.)
	const n = 4
	ragged := func(long, short int) []buffer.F64 {
		bufs := make([]buffer.F64, n)
		for i := range bufs {
			bufs[i] = buffer.NewF64(long)
		}
		bufs[2] = buffer.NewF64(short)
		return bufs
	}
	calls := map[string]func(c *Comm){
		"auto, one below the tree crossover": func(c *Comm) {
			c.Allreduce(0, "v", ragged(TreeAllreduceCrossoverBytes/8, 4), OpSum)
		},
		"auto, all past the Rabenseifner crossover": func(c *Comm) { c.Allreduce(0, "v", ragged(16384, 9000), OpSum) },
		"gather":       func(c *Comm) { c.AllreduceGather(0, "v", ragged(16, 9), OpSum) },
		"tree":         func(c *Comm) { c.AllreduceTree(0, "v", ragged(16, 9), OpSum) },
		"rabenseifner": func(c *Comm) { c.AllreduceRabenseifner(0, "v", ragged(16384, 9000), OpSum) },
		"hier":         func(c *Comm) { c.allreduce(algHier, 0, "v", ragged(16, 9), OpSum) },
	}
	for name, call := range calls {
		w := blockWorld(t, n, 2, false)
		call(w.Comm())
		if err := w.Shutdown(); !errors.Is(err, ErrCollectiveArgs) {
			t.Errorf("%s: Shutdown = %v, want ErrCollectiveArgs", name, err)
		}
		if got := w.MessagesSent(); got != 0 {
			t.Errorf("%s: a rejected Allreduce sent %d messages", name, got)
		}
		if got := w.Stats().Completed; got != 0 {
			t.Errorf("%s: a rejected Allreduce ran %d tasks", name, got)
		}
	}
}

// vectorCollectivesCase runs Allgatherv and the Rabenseifner allreduce once on a World derived from seed — random member count, random
// (possibly empty) segment layout, random block placement when placed,
// integer-valued data, full replication under 5 % SDC + 5 % DUE per
// execution — and returns one line per member whose result differs from
// the rank-order reference.
func vectorCollectivesCase(t *testing.T, seed uint64, placed bool) (mismatches []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed % (1 << 62))))
	n := 2 + rng.Intn(5)       // 2..6 members
	perNode := 1 + rng.Intn(n) // 1..n per node
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(5) // 0..4 elements
	}
	displs, total := vecLayout(counts)
	if total == 0 {
		counts[0] = 1
		displs, total = vecLayout(counts)
	}
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, total)
		for j := range data[i] {
			data[i][j] = float64(rng.Intn(2000) - 1000)
		}
	}
	// Rank-order references; with integer data these are the unique
	// exact results every algorithm must reproduce bitwise.
	agRef := allgathervReference(data, counts, displs, total)
	arRef := make([]float64, total)
	copy(arRef, data[0])
	for j := 1; j < n; j++ {
		OpSum(arRef, data[j])
	}
	cfg := Config{Ranks: n, RT: func(rank int) rt.Config {
		return rt.Config{
			Workers:  2,
			Selector: core.ReplicateAll{},
			Injector: fault.NewFixedRate(seed+uint64(rank)*13+1, 0.05, 0.05),
		}
	}}
	if placed {
		topo, err := simnet.BlockTopology(n, perNode, simnet.MemoryBus(), simnet.Marenostrum())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology = topo
	}
	w := NewWorld(cfg)
	ag := make([]buffer.F64, n)
	ar := make([]buffer.F64, n)
	for i := 0; i < n; i++ {
		ag[i] = buffer.NewF64(total)
		copy(ag[i][displs[i]:displs[i]+counts[i]], data[i][displs[i]:displs[i]+counts[i]])
		ar[i] = buffer.F64(append([]float64(nil), data[i]...))
	}
	c := w.Comm()
	c.Allgatherv(1, "ag", ag, counts, displs)
	c.AllreduceRabenseifner(3, "ar", ar, OpSum)
	if err := w.Shutdown(); err != nil {
		t.Fatalf("seed %#x placed=%v: %v", seed, placed, err)
	}
	differs := func(got, want []float64) bool {
		for j := range want {
			if got[j] != want[j] {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		if differs(ag[i], agRef) {
			mismatches = append(mismatches, fmt.Sprintf("allgatherv member %d got %v want %v", i, ag[i], agRef))
		}
		if differs(ar[i], arRef) {
			mismatches = append(mismatches, fmt.Sprintf("rabenseifner member %d got %v want %v", i, ar[i], arRef))
		}
	}
	return mismatches
}

// TestVectorCollectivesQuickBitwise is the property pin for the vector
// collectives: over random member counts, random (possibly empty) segment
// layouts, random block placements, and injected SDC + DUE under full
// replication, Allgatherv and the Rabenseifner allreduce must reproduce their flat references bitwise — on flat and placed Worlds
// alike. Integer-valued data keeps every fold order exact, so hier's
// node-grouped folds and Rabenseifner's sub-range folds must agree with the
// rank-order references to the last bit.
//
// The seeds come from a fixed source: at 5 % SDC + 5 % DUE per execution a
// time-seeded draw can land on a seed where two independently corrupted
// executions agree — duplicate-and-compare's blind spot, pinned by rt's
// TestCoincidentFlipAdopted — and tier-1 must not roll dice.
func TestVectorCollectivesQuickBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-check property test")
	}
	prop := func(seed uint64) bool {
		for _, placed := range []bool{false, true} {
			if bad := vectorCollectivesCase(t, seed, placed); bad != nil {
				t.Logf("seed %#x placed=%v: %s", seed, placed, strings.Join(bad, "; "))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
