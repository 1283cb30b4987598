// Package appfit is selective task replication for task-parallel dataflow
// programs with application-specific reliability targets — a Go
// implementation of Subasi et al., "A Runtime Heuristic to Selectively
// Replicate Tasks for Application-Specific Reliability Targets" (IEEE
// CLUSTER 2016).
//
// Programs submit tasks that declare in/out/inout accesses on named data
// regions; the runtime infers dependencies and executes ready tasks on a
// worker pool. A Selector decides, per task, whether to replicate it: the
// App_FIT heuristic keeps the application's unprotected failure rate (in
// FIT, failures per 10⁹ hours) under a user-supplied threshold by
// replicating exactly the tasks whose estimated failure contribution would
// otherwise exceed the prorated budget. Replicated tasks are checkpointed,
// executed twice, compared bitwise, and recovered by re-execution and
// majority vote when a silent data corruption or crash is detected.
//
// Distributed programs (the paper's OmpSs+MPI hybrid, §III) run on a World
// of in-process ranks and communicate through communicators: World.Comm is
// the world communicator, Comm.Split derives isolated sub-groups with
// densely re-numbered ranks (MPI_Comm_split style), and all point-to-point
// operations and collectives — Barrier, Broadcast, Allgather(v),
// ReduceScatterv, Allreduce — are Comm-scoped, so two groups can never
// cross-match each other's traffic even with identical tags.
//
// Quick start:
//
//	sel := appfit.NewAppFIT(thresholdFIT, totalTasks)
//	r := appfit.New(appfit.Config{Workers: 8, Selector: sel})
//	a := appfit.NewF64(1 << 20)
//	r.Submit("scale", func(ctx *appfit.Ctx) {
//		x := ctx.F64(0)
//		for i := range x {
//			x[i] *= 2
//		}
//	}, appfit.Inout("A", a))
//	err := r.Shutdown()
//
// The package is a facade over the implementation packages; see DESIGN.md
// for the full architecture and EXPERIMENTS.md for the reproduction of the
// paper's evaluation.
package appfit

import (
	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/place"
	"appfit/internal/rt"
	"appfit/internal/simnet"
	"appfit/internal/sweep"
)

// Runtime is the task-parallel dataflow runtime with the replication engine
// (the Nanos equivalent of the paper's §III design).
type Runtime = rt.Runtime

// Config configures a Runtime.
type Config = rt.Config

// Ctx gives a task body access to its argument buffers for the current
// execution attempt.
type Ctx = rt.Ctx

// Arg declares one task argument; TaskFunc is a task body. Bodies must be
// deterministic in their declared arguments: outputs are compared bitwise.
type (
	Arg      = rt.Arg
	TaskFunc = rt.TaskFunc
)

// Stats are the runtime's cumulative counters.
type Stats = rt.Stats

// New starts a runtime with cfg's worker pool running.
func New(cfg Config) *Runtime { return rt.New(cfg) }

// In declares a read-only argument on a named region.
func In(key string, b Buffer) Arg { return rt.In(key, b) }

// Out declares a write-only argument on a named region.
func Out(key string, b Buffer) Arg { return rt.Out(key, b) }

// Inout declares a read-modify-write argument on a named region.
func Inout(key string, b Buffer) Arg { return rt.Inout(key, b) }

// Buffer is a checkpointable, comparable, corruptible task argument.
// Concrete types: F64, C128, U8.
type Buffer = buffer.Buffer

// F64, C128 and U8 are the typed argument buffers.
type (
	F64  = buffer.F64
	C128 = buffer.C128
	U8   = buffer.U8
)

// NewF64 allocates a zeroed float64 buffer of n elements.
func NewF64(n int) F64 { return buffer.NewF64(n) }

// NewC128 allocates a zeroed complex128 buffer of n elements.
func NewC128(n int) C128 { return buffer.NewC128(n) }

// NewU8 allocates a zeroed byte buffer of n elements.
func NewU8(n int) U8 { return buffer.NewU8(n) }

// Selector decides, per task, whether to replicate it.
type Selector = core.Selector

// AppFIT is the paper's heuristic (Equation 1).
type AppFIT = core.AppFIT

// NewAppFIT returns an App_FIT selector for an application of totalTasks
// tasks and the given FIT threshold.
func NewAppFIT(threshold float64, totalTasks int) *AppFIT {
	return core.NewAppFIT(threshold, totalTasks)
}

// ReplicateAll and ReplicateNone are the complete-replication and
// unprotected baselines.
type (
	ReplicateAll  = core.ReplicateAll
	ReplicateNone = core.ReplicateNone
)

// Rates are node-level failure rates in FIT.
type Rates = fit.Rates

// Roadrunner returns the neutron-beam-derived rates the paper anchors to
// (Michalak et al.: crash 2.22×10³ FIT per 32 GB).
func Roadrunner() Rates { return fit.Roadrunner() }

// Injector supplies fault outcomes for execution attempts. NewSeededInjector
// injects at the estimated per-task rates (deterministically from a seed).
type Injector = fault.Injector

// NewSeededInjector returns a deterministic FIT-driven injector.
func NewSeededInjector(seed uint64) *fault.Seeded { return fault.NewSeeded(seed) }

// World is the distributed substrate (the OmpSs+MPI hybrid model, §III):
// in-process ranks, each with its own Runtime, exchanging messages through
// dependency-gated send/receive tasks scoped to communicators.
type World = dist.World

// WorldConfig configures a World.
type WorldConfig = dist.Config

// NewWorld starts a distributed world of communicating ranks.
func NewWorld(cfg WorldConfig) *World { return dist.NewWorld(cfg) }

// Comm is a communicator: the handle all distributed communication goes
// through. World.Comm returns the world communicator; Comm.Split derives
// isolated sub-communicators with densely re-numbered ranks and a private
// matching context.
type Comm = dist.Comm

// ReduceOp combines src into dst element-wise in Allreduce/ReduceScatterv;
// it must be deterministic in its arguments.
type ReduceOp = dist.ReduceOp

// Predefined commutative reduction operators.
var (
	OpSum = dist.OpSum
	OpMin = dist.OpMin
	OpMax = dist.OpMax
)

// Named argument errors of the distributed layer: out-of-range rank
// indices, malformed Comm.Split arguments and malformed vector-collective
// layouts (Allgatherv/ReduceScatterv counts and displacements) are reported
// as wrapped named errors instead of panics.
var (
	ErrRankOutOfRange = dist.ErrRankOutOfRange
	ErrSplitSize      = dist.ErrSplitSize
	ErrSplitColor     = dist.ErrSplitColor
	ErrSplitKey       = dist.ErrSplitKey
	ErrCollectiveArgs = dist.ErrCollectiveArgs
	ErrVectorArgs     = dist.ErrVectorArgs
)

// NetConfig is one interconnect link cost model (latency + bandwidth);
// Topology places World ranks on physical nodes with one model for
// node-mate links and one for node-crossing links. A World given a
// Topology auto-selects hierarchical collectives (node-local phase →
// leader exchange → node-local fan-out); a Sim transport given the same
// Topology prices and serializes every message by placement, so the
// virtual clock distinguishes a good placement from a terrible one. See
// DESIGN.md §8.
type (
	NetConfig = simnet.Config
	Topology  = simnet.Topology
)

// MarenostrumNet returns the paper testbed's InfiniBand-class link model.
func MarenostrumNet() NetConfig { return simnet.Marenostrum() }

// MemoryBusNet returns the shared-memory-class intra-node link model.
func MemoryBusNet() NetConfig { return simnet.MemoryBus() }

// NewTopology builds a topology from an explicit rank→node placement.
func NewTopology(nodeOf []int, intra, inter NetConfig) (*Topology, error) {
	return simnet.NewTopology(nodeOf, intra, inter)
}

// BlockTopology places ranks on nodes in contiguous blocks of perNode.
func BlockTopology(ranks, perNode int, intra, inter NetConfig) (*Topology, error) {
	return simnet.BlockTopology(ranks, perNode, intra, inter)
}

// MarenostrumTopology is the paper's machine shape: perNode ranks per
// node, memory-bus links inside a node, Marenostrum InfiniBand across.
func MarenostrumTopology(ranks, perNode int) (*Topology, error) {
	return simnet.MarenostrumTopology(ranks, perNode)
}

// SimTransport is the virtual-fabric transport: a World transport that
// additionally charges every message latency + bandwidth on a modeled
// interconnect and reports the link-occupancy makespan via Now().
type SimTransport = dist.Sim

// NewSimTopologyTransport returns a placement-aware virtual-fabric
// transport: node-mate messages are priced by the topology's intra model,
// node-crossing ones by the inter model, serialized per physical cable.
func NewSimTopologyTransport(topo *Topology) *SimTransport { return dist.NewSimTopology(topo) }

// Profile is a directed rank-pair traffic matrix, the input of the
// placement optimizer (internal/place, DESIGN.md §9): attach one to a live
// SimTransport with SimTransport.Record to capture who sent how much to
// whom.
type Profile = place.Profile

// NewProfile returns an empty traffic profile over ranks ranks.
func NewProfile(ranks int) *Profile { return place.NewProfile(ranks) }

// The parallel sweep engine (internal/sweep, DESIGN.md §11): batches of
// cluster simulations execute concurrently on a worker pool, identical
// in-flight requests coalesce, and completed results memoize in a bounded
// LRU cache behind a canonical content-addressed key — repeat traffic
// (parameter sweeps, warm reruns of a figure) is answered without
// re-simulating, bitwise-identical to a serial run.
type (
	// Sweep is the engine; one instance serves any number of goroutines.
	Sweep = sweep.Engine
	// SweepOptions sizes the worker pool and the results cache.
	SweepOptions = sweep.Options
	// SweepRequest is one simulation to run: a job on a cluster config.
	SweepRequest = sweep.Request
	// SimJob, SimTask and SimConfig spell a request's two halves: the task
	// DAG the virtual cluster runs and the machine it runs on.
	SimJob    = cluster.Job
	SimTask   = cluster.Task
	SimConfig = cluster.Config
	// PreparedJob is an immutable job whose task list was hashed once
	// (PrepareJob); its Request(cfg) derives a cache key in O(config).
	PreparedJob = sweep.Prepared
	// SweepResponse is one request's result, error and stage timings.
	SweepResponse = sweep.Response
	// SweepMetrics is the flat per-request timing record (queue wait,
	// cache lookup, simulation, total) behind SweepResponse.Metrics.
	SweepMetrics = sweep.Metrics
)

// NewSweep starts a sweep engine. The zero SweepOptions means one worker
// per CPU and the default cache size.
func NewSweep(opts SweepOptions) *Sweep { return sweep.New(opts) }

// PrepareJob hashes job's task list once, so the requests a sweep builds
// from the result — the same job under many configs — each cost a few
// hundred bytes of hashing instead of the whole DAG. The job's Tasks must
// not be mutated afterwards.
func PrepareJob(job SimJob) *PreparedJob { return sweep.Prepare(job) }
