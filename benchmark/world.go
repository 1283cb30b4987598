package main

import (
	"context"
	"fmt"
	"time"

	"appfit/internal/bench/cholesky"
	"appfit/internal/bench/workload"
	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/simnet"
	"appfit/internal/xrand"
)

// The collective workload's machine: 64 ranks, 16 to a node, priced by the
// Marenostrum topology on the Sim transport, hierarchical collectives on.
const (
	worldRanks   = 64
	worldPerNode = 16
	smallVec     = 1 << 10 / 8   // 1 KiB of float64: the latency-bound allreduce
	largeVec     = 256 << 10 / 8 // 256 KiB: past the Rabenseifner crossover
)

// worldInputs are the collective payloads, generated once from the seed.
// Values are small integers, so every reduction order gives the same bits
// and the rank-order reference is the one exact answer.
type worldInputs struct {
	small, large   [][]float64 // per-rank allreduce operands
	smallSum       []float64
	largeSum       []float64
	counts, displs []int // ragged allgatherv layout, 16-64 elements a member
	gathered       []float64
	// faultSeeds[round%len][phase] seeds that World's per-rank injectors.
	faultSeeds [][]uint64
}

func genWorldInputs(seed uint64) *worldInputs {
	rng := xrand.New(xrand.Combine(seed, 0x776f726c64))
	in := &worldInputs{}
	vectors := func(n int) (per [][]float64, total []float64) {
		total = make([]float64, n)
		per = make([][]float64, worldRanks)
		for r := range per {
			per[r] = make([]float64, n)
			for j := range per[r] {
				per[r][j] = float64(rng.Intn(2001) - 1000)
				total[j] += per[r][j]
			}
		}
		return per, total
	}
	in.small, in.smallSum = vectors(smallVec)
	in.large, in.largeSum = vectors(largeVec)
	in.counts = make([]int, worldRanks)
	in.displs = make([]int, worldRanks)
	n := 0
	for r := range in.counts {
		in.counts[r] = 16 + rng.Intn(49)
		in.displs[r] = n
		n += in.counts[r]
	}
	in.gathered = make([]float64, n)
	for j := range in.gathered {
		in.gathered[j] = float64(rng.Intn(2001) - 1000)
	}
	in.faultSeeds = make([][]uint64, 1024)
	for i := range in.faultSeeds {
		for range worldPhases {
			in.faultSeeds[i] = append(in.faultSeeds[i], rng.Uint64())
		}
	}
	return in
}

// worldPhase is one World lifetime of a round. bufs (optional) makes the
// per-rank buffers the phase works on, outside the timed section; build
// submits the phase's work on the communicator and returns its verifier.
type worldPhase struct {
	name  string
	bufs  func(in *worldInputs) []buffer.F64
	build func(c *dist.Comm, in *worldInputs, bufs []buffer.F64) (verify func() error, err error)
}

func copies(src [][]float64) []buffer.F64 {
	out := make([]buffer.F64, len(src))
	for i, s := range src {
		out[i] = append(buffer.F64(nil), s...)
	}
	return out
}

func equalAll(what string, bufs []buffer.F64, want []float64) error {
	for r, b := range bufs {
		for j, v := range b {
			if v != want[j] {
				return fmt.Errorf("%s: rank %d element %d = %v, want %v", what, r, j, v, want[j])
			}
		}
	}
	return nil
}

func allreducePhase(name string, operands func(*worldInputs) ([][]float64, []float64)) worldPhase {
	return worldPhase{
		name: name,
		bufs: func(in *worldInputs) []buffer.F64 { per, _ := operands(in); return copies(per) },
		build: func(c *dist.Comm, in *worldInputs, bufs []buffer.F64) (func() error, error) {
			c.Allreduce(0, "v", bufs, dist.OpSum)
			_, want := operands(in)
			return func() error { return equalAll(name, bufs, want) }, nil
		},
	}
}

var worldPhases = []worldPhase{
	{name: "boot", build: func(*dist.Comm, *worldInputs, []buffer.F64) (func() error, error) {
		return func() error { return nil }, nil
	}},
	{name: "halo", build: func(c *dist.Comm, _ *worldInputs, _ []buffer.F64) (func() error, error) {
		h, err := workload.BuildHalo(c, workload.HaloConfig{Iters: 8, N: 1024})
		if err != nil {
			return nil, err
		}
		return h.Verify, nil
	}},
	allreducePhase("allreduce_small", func(in *worldInputs) ([][]float64, []float64) { return in.small, in.smallSum }),
	allreducePhase("allreduce_large", func(in *worldInputs) ([][]float64, []float64) { return in.large, in.largeSum }),
	{
		name: "allgatherv",
		bufs: func(in *worldInputs) []buffer.F64 {
			out := make([]buffer.F64, worldRanks)
			for r := range out {
				out[r] = buffer.NewF64(len(in.gathered))
				lo, hi := in.displs[r], in.displs[r]+in.counts[r]
				copy(out[r][lo:hi], in.gathered[lo:hi])
			}
			return out
		},
		build: func(c *dist.Comm, in *worldInputs, bufs []buffer.F64) (func() error, error) {
			c.Allgatherv(0, "g", bufs, in.counts, in.displs)
			return func() error { return equalAll("allgatherv", bufs, in.gathered) }, nil
		},
	},
	{name: "cholesky", build: func(c *dist.Comm, _ *worldInputs, _ []buffer.F64) (func() error, error) {
		d, err := cholesky.BuildDist(c, cholesky.DistConfig{Nb: 16, B: 16, Pr: 8, Pc: 8})
		if err != nil {
			return nil, err
		}
		return d.Verify, nil
	}},
}

// worldTotals are the counters read from a World and its Sim transport.
type worldTotals struct {
	messages, tasks      uint64
	bytesSent, wireBytes int64
	virtualUS            map[string]float64
}

// runDistWorld is the collective path: each round boots an empty World and
// then lives five World lifetimes, every rank fully replicated under seeded
// faults, every result verified against its serial reference.
func runDistWorld(ctx context.Context, o options) (outcome, error) {
	var in *worldInputs
	var topo *simnet.Topology
	setup, err := timeSetup(o, nil, func() error {
		var err error
		if topo, err = simnet.MarenostrumTopology(worldRanks, worldPerNode); err != nil {
			return err
		}
		in = genWorldInputs(o.seed)
		return nil
	})
	if err != nil {
		return outcome{}, err
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	fixed := worldTotals{virtualUS: make(map[string]float64)} // the first round's counters
	var messages uint64
	ls, err := runRounds(ctx, o, 1, rec, func(i, root int, sw *stopwatch) roundTally {
		var t roundTally
		for p, ph := range worldPhases {
			var bufs []buffer.F64
			if ph.bufs != nil {
				bufs = ph.bufs(in)
			}
			base := in.faultSeeds[i%len(in.faultSeeds)][p]
			sim := dist.NewSimTopology(topo)

			sw.start()
			top := rec.begin("dist."+ph.name, root, i)
			s := rec.begin("dist.new_world", top, i)
			w := dist.NewWorld(dist.Config{Ranks: worldRanks, Transport: sim, Topology: topo,
				RT: func(rank int) rt.Config {
					return rt.Config{
						Selector: core.ReplicateAll{},
						Injector: fault.NewFixedRate(xrand.Combine(base, uint64(rank)), 0.005, 0.005),
					}
				}})
			rec.end(s)
			s = rec.begin("dist.build", top, i)
			verify, err := ph.build(w.Comm(), in, bufs)
			rec.end(s)
			s = rec.begin("dist.shutdown", top, i)
			shutErr := w.Shutdown()
			rec.end(s)
			rec.end(top)
			sw.stop()

			if err == nil {
				err = shutErr
			}
			if err == nil {
				err = verify()
			}
			t.attempted++
			if err != nil {
				fmt.Fprintf(o.log, "dist-world: round %d %s: %v\n", i, ph.name, err)
				t.failed++
			}
			t.ops += int(w.MessagesSent())
			if i == 0 {
				fixed.messages += w.MessagesSent()
				fixed.tasks += w.Stats().Completed
				fixed.bytesSent += sim.BytesSent()
				fixed.wireBytes += sim.WireBytes()
				fixed.virtualUS[ph.name] = sim.Now().Seconds() * 1e6
			}
		}
		messages += uint64(t.ops)
		return t
	})
	if err != nil {
		return outcome{}, err
	}

	out := outcome{attempted: ls.attempted, failed: ls.failed}
	if !o.trace {
		out.metrics = ls.endToEnd(setup)
		return out, nil
	}
	m := make(map[string]float64)
	out.metrics = m
	ls.processMetrics(m, rec)
	for _, ph := range worldPhases {
		m["dist."+ph.name+"_ms_p50"] = median(rec.durations("dist."+ph.name, time.Millisecond))
		if ph.name != "boot" {
			m["dist."+ph.name+"_virtual_us"] = fixed.virtualUS[ph.name]
			m["dist.virtual_us"] += fixed.virtualUS[ph.name]
		}
	}
	m["dist.new_world_ms_p50"] = median(rec.perOp("dist.new_world", time.Millisecond))
	m["dist.build_ms_p50"] = median(rec.perOp("dist.build", time.Millisecond))
	m["dist.shutdown_ms_p50"] = median(rec.perOp("dist.shutdown", time.Millisecond))
	m["dist.messages"] = float64(fixed.messages)
	m["dist.tasks"] = float64(fixed.tasks)
	m["dist.us_per_msg"] = ratio(float64(ls.sw.wall)/1e3, float64(messages))
	m["simnet.bytes_sent"] = float64(fixed.bytesSent)
	m["simnet.wire_bytes"] = float64(fixed.wireBytes)
	wireUnits(m, topo)
	return out, finishTrace(o, "dist-world", rec)
}
