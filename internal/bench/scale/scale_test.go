// Package scale is the submit→ready→complete scale suite: microbenchmarks
// for the three sharded layers (deps tracker, sched pool, dist rendezvous),
// plus whole Worlds at 64/128/256 ranks over the Direct and Sim transports. `make
// bench` runs it with -benchmem and records BENCH_scale.json, the repo's
// perf trajectory; `make check` runs every benchmark once so they cannot
// rot.
package scale

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appfit/internal/bench/cholesky"
	"appfit/internal/buffer"
	"appfit/internal/deps"
	"appfit/internal/dist"
	"appfit/internal/place"
	"appfit/internal/rt"
	"appfit/internal/sched"
	"appfit/internal/simnet"
	"appfit/internal/xrand"
)

// ---- deps: registration and completion ----

// BenchmarkDepsRegisterChain is the single-thread honesty check: one
// registrar building an inout chain, completing as it goes — what every
// submitted task pays the tracker. The wide-fan-in row is one writer behind
// 1 000 readers of its region: the de-duplication of its predecessors must
// stay linear in their number.
func BenchmarkDepsRegisterChain(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		tr := deps.NewTracker()
		acc := []deps.Access{{Key: "X", Mode: deps.Inout}}
		for i := 0; i < b.N; i++ {
			tr.Register(uint64(i+1), acc)
			if i > 0 {
				tr.Complete(uint64(i))
			}
		}
	})
	const readers = 1000
	b.Run("wide-fan-in/readers="+strconv.Itoa(readers), func(b *testing.B) {
		b.ReportAllocs()
		read := []deps.Access{{Key: "X", Mode: deps.In}, {Key: "Y", Mode: deps.In}}
		write := []deps.Access{{Key: "X", Mode: deps.Inout}, {Key: "Y", Mode: deps.Inout}}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr := deps.NewTracker()
			for id := uint64(1); id <= readers; id++ {
				tr.Register(id, read)
			}
			b.StartTimer()
			// Only the writer is timed; it meets every reader through both
			// regions.
			if tr.Register(readers+1, write) || tr.Pending(readers+1) != readers {
				b.Fatalf("writer waits on %d tasks, want %d", tr.Pending(readers+1), readers)
			}
		}
	})
}

// BenchmarkDepsCompleteParallel is the contended hot path: tasks on disjoint
// regions completed from every CPU at once; two completions collide on a
// node-shard lock 1/64 of the time.
func BenchmarkDepsCompleteParallel(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		tr := deps.NewTracker()
		// Pre-register b.N two-task chains (producer → consumer on a
		// private region): Complete of a producer walks an edge and
		// releases exactly one successor, like a real dataflow step.
		for i := 0; i < b.N; i++ {
			key := "r" + strconv.Itoa(i)
			tr.Register(uint64(2*i+1), []deps.Access{{Key: key, Mode: deps.Out}})
			tr.Register(uint64(2*i+2), []deps.Access{{Key: key, Mode: deps.In}})
		}
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1) - 1
				released := tr.Complete(uint64(2*i + 1))
				if len(released) != 1 {
					b.Errorf("chain %d released %v", i, released)
					return
				}
				tr.Complete(released[0])
			}
		})
	})
}

// ---- sched: successor release ----

// BenchmarkSchedRelease measures the producer side of a completion releasing
// k successors: k Submit calls (k pool-lock acquisitions and wakes) vs one
// SubmitBatch. Workers drain concurrently, as in the runtime.
func BenchmarkSchedRelease(b *testing.B) {
	const k = 8
	for _, mode := range []string{"submit", "batch"} {
		mode := mode
		b.Run(mode+"/succs="+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			p := sched.NewPool(4)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						if _, ok := p.Get(w); !ok {
							return
						}
					}
				}(w)
			}
			batch := make([]uint64, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = uint64(i*k + j + 1)
				}
				if mode == "batch" {
					p.SubmitBatch(0, batch)
				} else {
					for _, v := range batch {
						p.Submit(0, v)
					}
				}
			}
			b.StopTimer()
			p.Close()
			wg.Wait()
		})
	}
}

// ---- dist: rendezvous ----

// BenchmarkDirectPingPong is the uncontended matcher path: one goroutine,
// one mailbox. The sharded row sends, then receives with the blocking Recv
// (the wrapper over Post); the post row is a World's receive — post first,
// and the send delivers to it.
func BenchmarkDirectPingPong(b *testing.B) {
	payload := buffer.NewF64(16)
	m := dist.Match{Src: 0, Dst: 1, Tag: 7}
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		d := dist.NewDirect()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Send(m, payload)
			if _, err := d.Recv(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("post", func(b *testing.B) {
		b.ReportAllocs()
		d := dist.NewDirect()
		delivered := 0
		deliver := func(p buffer.Buffer, err error) {
			if err != nil {
				b.Fatal(err)
			}
			delivered++
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Post(m, deliver)
			d.Send(m, payload)
		}
		if delivered != b.N {
			b.Fatalf("%d deliveries for %d messages", delivered, b.N)
		}
	})
}

// BenchmarkDirectContended runs one sender/receiver mailbox per CPU in
// parallel: disjoint traffic, which contends only when two mailboxes hash
// to one stripe.
func BenchmarkDirectContended(b *testing.B) {
	payload := buffer.NewF64(16)
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		d := dist.NewDirect()
		var lane atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			m := dist.Match{Src: int(lane.Add(1)), Dst: 0, Tag: 3}
			for pb.Next() {
				d.Send(m, payload)
				if _, err := d.Recv(m); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkDirectHerd is the thundering-herd scenario from ROADMAP: 255
// receivers — a 256-rank World's worth — waiting on unrelated mailboxes
// while two goroutines ping-pong through the matcher, the ping-ponger
// genuinely waiting in Recv. A matcher whose receivers shared a condition
// variable woke bystanders per message (the single-mutex matcher's last
// numbers are in CHANGES.md); a posted receive is woken by its own delivery
// only, so this should cost what an uncontended ping-pong round trip
// between two goroutines does.
func BenchmarkDirectHerd(b *testing.B) {
	const parked = 255
	payload := buffer.NewF64(16)
	b.Run("sharded/parked="+strconv.Itoa(parked), func(b *testing.B) {
		b.ReportAllocs()
		d := dist.NewDirect()
		var wg sync.WaitGroup
		for i := 0; i < parked; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Never matched; failed by Close with ErrClosed.
				d.Recv(dist.Match{Src: 1000 + i, Dst: i, Tag: 9})
			}(i)
		}
		ping := dist.Match{Src: 0, Dst: 1, Tag: 7}
		pong := dist.Match{Src: 1, Dst: 0, Tag: 7}
		wg.Add(1)
		go func() { // responder
			defer wg.Done()
			for {
				if _, err := d.Recv(ping); err != nil {
					return
				}
				d.Send(pong, payload)
			}
		}()
		// One untimed round plus a settle delay lets every bystander
		// actually wait before timing starts.
		d.Send(ping, payload)
		if _, err := d.Recv(pong); err != nil {
			b.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Send(ping, payload)
			if _, err := d.Recv(pong); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		d.Close()
		wg.Wait()
	})
}

// ---- whole Worlds at scale ----

// worldTraffic drives one World through the mixed pattern the ROADMAP scale
// item names: a ring halo exchange (point-to-point), a dissemination
// barrier, and an allreduce — the hot submit→ready→complete path of every
// rank plus cross-rank rendezvous. Returns the messages moved.
func worldTraffic(b *testing.B, ranks int, mk func() dist.Transport) uint64 {
	w := dist.NewWorld(dist.Config{Ranks: ranks, Transport: mk()})
	own := make([]buffer.F64, ranks)
	halo := make([]buffer.F64, ranks)
	red := make([]buffer.F64, ranks)
	for i := 0; i < ranks; i++ {
		own[i] = buffer.F64{float64(i)}
		halo[i] = buffer.NewF64(1)
		red[i] = buffer.F64{float64(i)}
	}
	c := w.Comm()
	for i := 0; i < ranks; i++ {
		c.Rank(i).Send((i+1)%ranks, 0, "own", own[i])
		c.Rank(i).Recv(((i-1)%ranks+ranks)%ranks, 0, "halo", halo[i])
	}
	for i := 0; i < ranks; i++ {
		c.Rank(i).Barrier(1, rt.In("halo", halo[i]))
	}
	c.AllreduceSum(2, "red", red)
	if err := w.Shutdown(); err != nil {
		b.Fatal(err)
	}
	if halo[0][0] != float64(ranks-1) || red[0][0] != float64(ranks*(ranks-1)/2) {
		b.Fatalf("world traffic produced wrong data: halo %v red %v", halo[0][0], red[0][0])
	}
	return w.MessagesSent()
}

// BenchmarkAllreduceTreeVsGather records the trade-off behind the
// Allreduce crossover (dist.TreeAllreduceCrossover): the same long-vector
// reduction on one World, once through the gather+broadcast algorithm that
// funnels every vector through member 0, once through the
// recursive-doubling tree whose members fold in parallel. One op is a
// whole World lifetime, as in BenchmarkWorldScale.
func BenchmarkAllreduceTreeVsGather(b *testing.B) {
	const vlen = 4096
	algos := []struct {
		name string
		run  func(c *dist.Comm, bufs []buffer.F64)
	}{
		{"gather", func(c *dist.Comm, bufs []buffer.F64) { c.AllreduceGather(0, "v", bufs, dist.OpSum) }},
		{"tree", func(c *dist.Comm, bufs []buffer.F64) { c.AllreduceTree(0, "v", bufs, dist.OpSum) }},
	}
	for _, algo := range algos {
		for _, ranks := range []int{8, 32} {
			algo, ranks := algo, ranks
			b.Run(fmt.Sprintf("%s/ranks=%d", algo.name, ranks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					w := dist.NewWorld(dist.Config{Ranks: ranks})
					bufs := make([]buffer.F64, ranks)
					for r := range bufs {
						bufs[r] = buffer.NewF64(vlen)
						bufs[r][0] = 1
					}
					algo.run(w.Comm(), bufs)
					if err := w.Shutdown(); err != nil {
						b.Fatal(err)
					}
					if bufs[0][0] != float64(ranks) {
						b.Fatalf("allreduce sum = %v, want %d", bufs[0][0], ranks)
					}
				}
			})
		}
	}
}

// ---- topology: flat vs hierarchical collectives on the placed fabric ----

// BenchmarkAllreduceFlatVsHier is the acceptance benchmark of the topology
// PR: the same allreduce on the same placed fabric (16 ranks per node,
// memory-bus intra links, Marenostrum inter links) at 64/128/256 ranks,
// once with the flat algorithms (the World does not know the placement)
// and once hierarchical (it does). Wall time measures the in-process
// machinery; the decisive metric is vus/op — the Sim transport's virtual
// link-occupancy makespan in microseconds, which the hierarchical variant
// must keep below the flat one (recorded in BENCH_scale.json).
func BenchmarkAllreduceFlatVsHier(b *testing.B) {
	const perNode = 16
	const vecLen = 4096
	for _, hier := range []bool{false, true} {
		for _, ranks := range []int{64, 128, 256} {
			hier, ranks := hier, ranks
			name := "flat"
			if hier {
				name = "hier"
			}
			b.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(b *testing.B) {
				topo, err := simnet.MarenostrumTopology(ranks, perNode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var vus float64
				for i := 0; i < b.N; i++ {
					sim := dist.NewSimTopology(topo)
					cfg := dist.Config{Ranks: ranks, Transport: sim}
					if hier {
						cfg.Topology = topo
					}
					w := dist.NewWorld(cfg)
					bufs := make([]buffer.F64, ranks)
					for r := range bufs {
						bufs[r] = buffer.NewF64(vecLen)
						bufs[r][0] = 1
					}
					w.Comm().AllreduceSum(0, "r", bufs)
					if err := w.Shutdown(); err != nil {
						b.Fatal(err)
					}
					if bufs[0][0] != float64(ranks) {
						b.Fatalf("allreduce sum = %v, want %d", bufs[0][0], ranks)
					}
					vus = sim.Now().Seconds() * 1e6
				}
				b.ReportMetric(vus, "vus/op")
			})
		}
	}
}

// BenchmarkAllgatherFlatVsHier is the allgather companion: the hierarchical
// route trades the ring's node-crossing steps for node-local rings plus one
// leader exchange per block. Capped at 128 ranks — a 256-rank allgather
// allocates ranks² blocks per iteration, which measures the allocator, not
// the fabric.
func BenchmarkAllgatherFlatVsHier(b *testing.B) {
	const perNode = 16
	const vecLen = 256
	for _, hier := range []bool{false, true} {
		for _, ranks := range []int{64, 128} {
			hier, ranks := hier, ranks
			name := "flat"
			if hier {
				name = "hier"
			}
			b.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(b *testing.B) {
				topo, err := simnet.MarenostrumTopology(ranks, perNode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var vus float64
				for i := 0; i < b.N; i++ {
					sim := dist.NewSimTopology(topo)
					cfg := dist.Config{Ranks: ranks, Transport: sim}
					if hier {
						cfg.Topology = topo
					}
					w := dist.NewWorld(cfg)
					bufs := make([][]buffer.Buffer, ranks)
					for r := range bufs {
						bufs[r] = make([]buffer.Buffer, ranks)
						for j := range bufs[r] {
							bufs[r][j] = buffer.NewF64(vecLen)
						}
						bufs[r][r].(buffer.F64)[0] = float64(r + 1)
					}
					w.Comm().Allgather(0, func(j int) string { return "g" + strconv.Itoa(j) }, bufs)
					if err := w.Shutdown(); err != nil {
						b.Fatal(err)
					}
					if got := bufs[0][ranks-1].(buffer.F64)[0]; got != float64(ranks) {
						b.Fatalf("allgather block = %v, want %d", got, ranks)
					}
					vus = sim.Now().Seconds() * 1e6
				}
				b.ReportMetric(vus, "vus/op")
			})
		}
	}
}

// BenchmarkAllreduceTreeVsRab is the acceptance benchmark of the vector-
// collectives PR: the same large-vector allreduce (16384 floats = 128 KiB,
// past dist.RabenseifnerCrossoverBytes) priced on the placed fabric at
// 64/128/256 ranks, once through the recursive-doubling tree and once
// through Rabenseifner's reduce-scatter + allgather. The decisive metric is
// vus/op, the Sim transport's deterministic link-occupancy makespan:
// Rabenseifner must keep it below the tree's at every rank count, because
// its nearest-partner-first rounds move the O(V)-sized pieces over
// intra-node links and only O(V/p)-sized segments across node cables, where
// the tree funnels whole vectors through them (recorded in
// BENCH_scale.json; the same comparison gates `make check-kernels`).
func BenchmarkAllreduceTreeVsRab(b *testing.B) {
	const perNode = 16
	const vecLen = 16384
	algos := []struct {
		name string
		run  func(c *dist.Comm, bufs []buffer.F64)
	}{
		{"tree", func(c *dist.Comm, bufs []buffer.F64) { c.AllreduceTree(0, "v", bufs, dist.OpSum) }},
		{"rab", func(c *dist.Comm, bufs []buffer.F64) { c.AllreduceRabenseifner(0, "v", bufs, dist.OpSum) }},
	}
	for _, algo := range algos {
		for _, ranks := range []int{64, 128, 256} {
			algo, ranks := algo, ranks
			b.Run(fmt.Sprintf("%s/ranks=%d", algo.name, ranks), func(b *testing.B) {
				topo, err := simnet.MarenostrumTopology(ranks, perNode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var vus float64
				for i := 0; i < b.N; i++ {
					sim := dist.NewSimTopology(topo)
					w := dist.NewWorld(dist.Config{Ranks: ranks, Transport: sim})
					bufs := make([]buffer.F64, ranks)
					for r := range bufs {
						bufs[r] = buffer.NewF64(vecLen)
						bufs[r][0] = 1
					}
					algo.run(w.Comm(), bufs)
					if err := w.Shutdown(); err != nil {
						b.Fatal(err)
					}
					if bufs[0][0] != float64(ranks) {
						b.Fatalf("allreduce sum = %v, want %d", bufs[0][0], ranks)
					}
					vus = sim.Now().Seconds() * 1e6
				}
				b.ReportMetric(vus, "vus/op")
			})
		}
	}
}

// BenchmarkCholeskyFlatVsHier prices the first distributed task-graph
// kernel: the 2D block-cyclic cholesky whose row/column broadcasts run flat
// when the World is placement-blind and hierarchical when it knows the
// topology. The grid keeps Pc = 8 columns at every rank count, so a column
// communicator's members stride 8 ranks and land two per 16-rank node — the
// shape where the hierarchical broadcast has something to exploit (a
// near-square 16×16 grid at 256 ranks strides columns exactly one member
// per node, and both variants collapse to the same flat routing). One op is
// a whole World lifetime — build, factorize, drain. vus/op is the
// deterministic placed-fabric makespan the hierarchical variant must keep
// below the flat one; the last factorization of each run is verified
// bitwise against the serial reference.
func BenchmarkCholeskyFlatVsHier(b *testing.B) {
	const perNode = 16
	grids := map[int]cholesky.DistConfig{
		64:  {Nb: 16, B: 16, Pr: 8, Pc: 8},
		128: {Nb: 16, B: 16, Pr: 16, Pc: 8},
		256: {Nb: 32, B: 16, Pr: 32, Pc: 8},
	}
	for _, hier := range []bool{false, true} {
		for _, ranks := range []int{64, 128, 256} {
			hier, ranks := hier, ranks
			name := "flat"
			if hier {
				name = "hier"
			}
			b.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(b *testing.B) {
				topo, err := simnet.MarenostrumTopology(ranks, perNode)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var vus float64
				var last *cholesky.Dist
				for i := 0; i < b.N; i++ {
					sim := dist.NewSimTopology(topo)
					cfg := dist.Config{Ranks: ranks, Transport: sim}
					if hier {
						cfg.Topology = topo
					}
					w := dist.NewWorld(cfg)
					d, err := cholesky.BuildDist(w.Comm(), grids[ranks])
					if err != nil {
						b.Fatal(err)
					}
					if err := w.Shutdown(); err != nil {
						b.Fatal(err)
					}
					vus = sim.Now().Seconds() * 1e6
					last = d
				}
				b.StopTimer()
				if err := last.Verify(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(vus, "vus/op")
			})
		}
	}
}

// BenchmarkWorldScale runs the mixed-traffic World at 64/128/256 ranks over
// the sharded Direct and the Sim fabric (Marenostrum cost model). One op is
// a whole World lifetime: construction, traffic, drain, shutdown.
func BenchmarkWorldScale(b *testing.B) {
	transports := []struct {
		name string
		mk   func() dist.Transport
	}{
		{"direct", func() dist.Transport { return dist.NewDirect() }},
		{"sim", func() dist.Transport { return dist.NewSim(simnet.Marenostrum()) }},
	}
	for _, tr := range transports {
		for _, ranks := range []int{64, 128, 256} {
			tr, ranks := tr, ranks
			b.Run(fmt.Sprintf("%s/ranks=%d", tr.name, ranks), func(b *testing.B) {
				b.ReportAllocs()
				var msgs uint64
				for i := 0; i < b.N; i++ {
					msgs = worldTraffic(b, ranks, tr.mk)
				}
				b.ReportMetric(float64(msgs), "msgs/world")
			})
		}
	}
}

// ---- place: optimizer cost and optimized-vs-block makespans ----

// placementProfile builds the deterministic synthetic traffic matrix the
// placement benchmarks search over: the pair halo exchange (partner =
// rank xor 1, 8 rounds of 32 KiB) or the nbody ring (63 successor blocks
// of 2 KiB), both at 64 ranks — the experiment table's workloads without
// the cost of spinning up a World per iteration.
func placementProfile(kind string, ranks int) *place.Profile {
	p := place.NewProfile(ranks)
	switch kind {
	case "halo":
		for r := 0; r < ranks; r++ {
			p.AddN(r, r^1, 32768, 8)
		}
	case "ring":
		for r := 0; r < ranks; r++ {
			p.AddN(r, (r+1)%ranks, 2048, uint64(ranks-1))
		}
	}
	return p
}

// scatterAssign is the seeded random start: block slots shuffled, so
// occupancy stays exactly perNode and the search is placement-only.
func scatterAssign(ranks, perNode int, seed uint64) []int {
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r / perNode
	}
	xrand.New(seed).Shuffle(ranks, func(i, j int) {
		nodeOf[i], nodeOf[j] = nodeOf[j], nodeOf[i]
	})
	return nodeOf
}

func scatterTopology(b *testing.B, ranks, perNode int, seed uint64) *simnet.Topology {
	topo, err := simnet.NewTopology(scatterAssign(ranks, perNode, seed), simnet.MemoryBus(), simnet.Marenostrum())
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// BenchmarkPlacementOptimize prices the optimizer itself: one op is a
// full search (greedy seed + 256-eval local search, incrementally priced)
// from a seeded random placement at the paper's 64 ranks, 16 per node.
// ns/op is the optimizer's cost — the number that says whether
// auto-placement is cheap enough to run before every job — and vus/op is
// the virtual makespan of the placement it found, guarded against the
// committed baseline so the search can never silently get worse;
// blockvus/op is the block placement's makespan on the same profile for
// reference.
func BenchmarkPlacementOptimize(b *testing.B) {
	const ranks, perNode = 64, 16
	for _, kind := range []string{"halo", "ring"} {
		b.Run(fmt.Sprintf("%s/ranks=%d", kind, ranks), func(b *testing.B) {
			b.ReportAllocs()
			prof := placementProfile(kind, ranks)
			start := scatterTopology(b, ranks, perNode, 1)
			block, err := simnet.BlockTopology(ranks, perNode, simnet.MemoryBus(), simnet.Marenostrum())
			if err != nil {
				b.Fatal(err)
			}
			blockEval, err := place.Evaluate(prof, block)
			if err != nil {
				b.Fatal(err)
			}
			var got place.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err = place.Optimize(prof, start, place.Options{PerNode: perNode, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got.Eval.Makespan > got.Input.Makespan {
				b.Fatalf("optimized %v worse than input %v", got.Eval.Makespan, got.Input.Makespan)
			}
			b.ReportMetric(got.Eval.Makespan.Seconds()*1e6, "vus/op")
			b.ReportMetric(blockEval.Makespan.Seconds()*1e6, "blockvus/op")
		})
	}
}

// BenchmarkPlacementEvaluate is one full pricing of a profile — what each
// of a search's baseline candidates costs.
func BenchmarkPlacementEvaluate(b *testing.B) {
	const ranks, perNode = 64, 16
	for _, kind := range []string{"halo", "ring"} {
		b.Run(fmt.Sprintf("%s/ranks=%d", kind, ranks), func(b *testing.B) {
			b.ReportAllocs()
			prof := placementProfile(kind, ranks)
			topo := scatterTopology(b, ranks, perNode, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := place.Evaluate(prof, topo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
