package dist

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/traffic_golden.txt from this run")

// trafficCase is one collective × algorithm submission on a fresh placed
// World; it builds its own buffers from the communicator size.
type trafficCase struct {
	name string
	run  func(c *Comm)
}

// f64s returns n per-member vectors of length L holding small integers, so
// every fold is exact whatever order it runs in.
func f64s(n, L int) []buffer.F64 {
	out := make([]buffer.F64, n)
	for i := range out {
		out[i] = make(buffer.F64, L)
		for j := range out[i] {
			out[i][j] = float64((i*31 + j) % 97)
		}
	}
	return out
}

// raggedCounts is a layout with empty, short and long segments.
func raggedCounts(n int) []int {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = (i * 7) % 5
	}
	return counts
}

// ragged is a (counts, displs) layout with its shared vectors.
type ragged struct {
	counts, displs []int
	bufs           []buffer.F64
}

func newRagged(n int) ragged {
	r := ragged{counts: raggedCounts(n)}
	var total int
	r.displs, total = vecLayout(r.counts)
	r.bufs = f64s(n, total)
	return r
}

func allgatherBlocks(n, L int) [][]buffer.Buffer {
	out := make([][]buffer.Buffer, n)
	for i := range out {
		out[i] = anyBufs(f64s(n, L))
	}
	return out
}

func blockName(j int) string { return fmt.Sprintf("blk%d", j) }

var trafficCases = []trafficCase{
	{"Barrier", func(c *Comm) { c.Barrier(1) }},
	{"BroadcastFlat", func(c *Comm) { c.broadcast(false, c.Size()/3, 1, "v", anyBufs(f64s(c.Size(), 10))) }},
	{"BroadcastHier", func(c *Comm) { c.broadcast(true, c.Size()/3, 1, "v", anyBufs(f64s(c.Size(), 10))) }},
	{"AllgatherFlat", func(c *Comm) { c.allgather(false, 1, blockName, allgatherBlocks(c.Size(), 3)) }},
	{"AllgatherHier", func(c *Comm) { c.allgather(true, 1, blockName, allgatherBlocks(c.Size(), 3)) }},
	{"AllgathervFlat", func(c *Comm) {
		r := newRagged(c.Size())
		c.allgatherv(false, 1, "v", r.bufs, r.counts, r.displs)
	}},
	{"AllgathervHier", func(c *Comm) {
		r := newRagged(c.Size())
		c.allgatherv(true, 1, "v", r.bufs, r.counts, r.displs)
	}},
	{"AllreduceGather", func(c *Comm) { c.AllreduceGather(1, "v", f64s(c.Size(), 100), OpSum) }},
	{"AllreduceTree", func(c *Comm) { c.AllreduceTree(1, "v", f64s(c.Size(), 100), OpSum) }},
	{"AllreduceRabenseifner", func(c *Comm) { c.AllreduceRabenseifner(1, "v", f64s(c.Size(), 1000), OpSum) }},
	// The leader phase re-enters the byte-based selection: 800 B stays on
	// the gather, 8 KiB takes the tree, 64 KiB Rabenseifner (whenever more
	// than two leaders exist).
	{"AllreduceHier/800B", func(c *Comm) { c.allreduce(algHier, 1, "v", f64s(c.Size(), 100), OpSum) }},
	{"AllreduceHier/8KiB", func(c *Comm) { c.allreduce(algHier, 1, "v", f64s(c.Size(), 1024), OpSum) }},
	{"AllreduceHier/64KiB", func(c *Comm) { c.allreduce(algHier, 1, "v", f64s(c.Size(), 8192), OpSum) }},
	// The dispatchers themselves, as the benchmark calls them.
	{"Allreduce/1KiB", func(c *Comm) { c.Allreduce(1, "v", f64s(c.Size(), 128), OpSum) }},
	{"Allreduce/custom-op", func(c *Comm) {
		c.Allreduce(1, "v", f64s(c.Size(), 1024), func(dst, src []float64) { OpSum(dst, src) })
	}},
	{"Allgatherv", func(c *Comm) {
		r := newRagged(c.Size())
		c.Allgatherv(1, "v", r.bufs, r.counts, r.displs)
	}},
}

// flowKey is one (world src, world dst, payload bytes) message shape.
type flowKey struct {
	src, dst int
	bytes    int64
}

// recorder is a Sim that also counts every message it charges by shape.
type recorder struct {
	*Sim
	mu     sync.Mutex
	counts map[flowKey]uint64 // guarded by mu
}

func (r *recorder) Send(m Match, payload buffer.Buffer) {
	r.mu.Lock()
	r.counts[flowKey{m.Src, m.Dst, payload.SizeBytes()}]++
	r.mu.Unlock()
	r.Sim.Send(m, payload)
}

// writeMatrix prints one line per recorded shape, ordered by (src, dst,
// bytes), with its count.
func (r *recorder) writeMatrix(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]flowKey, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.bytes < b.bytes
	})
	for _, k := range keys {
		fmt.Fprintf(w, "\t%d>%d %dB x%d\n", k.src, k.dst, k.bytes, r.counts[k])
	}
}

// TestTrafficMatrixGolden pins what every collective × algorithm puts on
// the fabric — the multiset of (world src, world dst, payload bytes)
// messages, which is all a collective's virtual cost depends on (the
// meter's per-link busy-until is an order-independent sum) — plus the
// message, byte, virtual-time and task counters, at a non-power-of-two, a
// power of two and the benchmark's 64 × 16-per-node shape, fault-free.
// A refactor of the schedules must leave testdata/traffic_golden.txt
// byte-identical; regenerate with -update only for a deliberate change.
func TestTrafficMatrixGolden(t *testing.T) {
	shapes := []struct{ ranks, perNode int }{{6, 4}, {8, 2}, {64, 16}}
	var got bytes.Buffer
	for _, sh := range shapes {
		topo, err := simnet.MarenostrumTopology(sh.ranks, sh.perNode)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range trafficCases {
			sim := &recorder{Sim: NewSimTopology(topo), counts: map[flowKey]uint64{}}
			w := NewWorld(Config{Ranks: sh.ranks, Transport: sim, Topology: topo})
			tc.run(w.Comm())
			if err := w.Shutdown(); err != nil {
				t.Fatalf("%d ranks %s: %v", sh.ranks, tc.name, err)
			}
			fmt.Fprintf(&got, "%s ranks=%d per_node=%d messages=%d bytes=%d wire_bytes=%d virtual_ns=%d tasks=%d\n",
				tc.name, sh.ranks, sh.perNode, w.MessagesSent(), sim.BytesSent(), sim.WireBytes(),
				int64(sim.Now()), w.Stats().Completed)
			sim.writeMatrix(&got)
		}
	}
	path := filepath.Join("testdata", "traffic_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("traffic matrix drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("traffic matrix drifted: %d lines, golden has %d", len(gl), len(wl))
	}
}
