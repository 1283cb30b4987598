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
// operations and collectives — Barrier, Broadcast, Allgather, Allreduce,
// ReduceScatter — are Comm-scoped, so two groups can never cross-match each
// other's traffic even with identical tags.
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
	"io"

	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/dist"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/place"
	"appfit/internal/rt"
	"appfit/internal/serve"
	"appfit/internal/simnet"
	"appfit/internal/sweep"
	"appfit/internal/trace"
	"appfit/internal/vote"
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
// Concrete types: F64, C128, I64, U8.
type Buffer = buffer.Buffer

// F64, C128, I64 and U8 are the typed argument buffers.
type (
	F64  = buffer.F64
	C128 = buffer.C128
	I64  = buffer.I64
	U8   = buffer.U8
)

// NewF64 allocates a zeroed float64 buffer of n elements.
func NewF64(n int) F64 { return buffer.NewF64(n) }

// NewC128 allocates a zeroed complex128 buffer of n elements.
func NewC128(n int) C128 { return buffer.NewC128(n) }

// NewI64 allocates a zeroed int64 buffer of n elements.
func NewI64(n int) I64 { return buffer.NewI64(n) }

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

// Rates are node-level failure rates in FIT; Task is a per-task estimate.
type (
	Rates   = fit.Rates
	FITTask = fit.Task
)

// Roadrunner returns the neutron-beam-derived rates the paper anchors to
// (Michalak et al.: crash 2.22×10³ FIT per 32 GB).
func Roadrunner() Rates { return fit.Roadrunner() }

// Injector supplies fault outcomes for execution attempts. NewSeededInjector
// injects at the estimated per-task rates (deterministically from a seed);
// NewFixedRateInjector uses constant per-execution probabilities.
type Injector = fault.Injector

// NewSeededInjector returns a deterministic FIT-driven injector.
func NewSeededInjector(seed uint64) *fault.Seeded { return fault.NewSeeded(seed) }

// NewFixedRateInjector returns an injector with constant probabilities.
func NewFixedRateInjector(seed uint64, pDUE, pSDC float64) *fault.FixedRate {
	return fault.NewFixedRate(seed, pDUE, pSDC)
}

// Comparator checks replica agreement; Bitwise is the paper's default.
type (
	Comparator = vote.Comparator
	Bitwise    = vote.Bitwise
	Checksum   = vote.Checksum
)

// Tracer records per-task events; attach via Config.Tracer.
type Tracer = trace.Tracer

// NewTracer returns an empty Tracer.
func NewTracer() *Tracer { return trace.New() }

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

// CommRank is one member's view of a communicator: comm-local rank plus
// the underlying world rank; point-to-point Send/Recv live here.
type CommRank = dist.CommRank

// ReduceOp combines src into dst element-wise in Allreduce/ReduceScatter;
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

// NewSimTransport returns a flat virtual-fabric transport (every rank its
// own node, every link priced by cfg). An invalid cfg — zero/negative
// bandwidth, negative or non-finite latency — panics with a wrapped
// ErrNetConfig: it is a programmer error, like scheduling a simulation
// event in the past. Check cfg.Validate() first when the model comes from
// configuration; the Topology constructors validate for you.
func NewSimTransport(cfg NetConfig) *SimTransport { return dist.NewSim(cfg) }

// NewSimTopologyTransport returns a placement-aware virtual-fabric
// transport: node-mate messages are priced by the topology's intra model,
// node-crossing ones by the inter model, serialized per physical cable.
func NewSimTopologyTransport(topo *Topology) *SimTransport { return dist.NewSimTopology(topo) }

// Named errors of the topology layer: malformed link cost models and
// placements (simnet constructors), and a World topology that does not
// cover the World's ranks.
var (
	ErrNetConfig     = simnet.ErrConfig
	ErrNetTopology   = simnet.ErrTopology
	ErrWorldTopology = dist.ErrTopology
)

// The placement-optimization pipeline (internal/place, DESIGN.md §9):
// capture a Profile of rank-pair traffic — record a live SimTransport
// (SimTransport.Record) or derive one statically — evaluate it under any
// candidate Topology, and search assignments against the meter's makespan.
// PlaceEval.Makespan is bitwise the makespan a live run of the profiled
// traffic would report on that topology.
type (
	// Profile is a directed rank-pair traffic matrix.
	Profile = place.Profile
	// PlaceOptions shapes the optimizer's machine and search budget.
	PlaceOptions = place.Options
	// PlaceEval is one candidate placement's price (makespan, wire bytes).
	PlaceEval = place.Eval
	// PlaceResult is an optimization outcome: best topology, its price,
	// the input placement's price, and the evaluated trajectory.
	PlaceResult = place.Result
	// PlaceScorer prices individual swap/relocate moves incrementally —
	// O(moved ranks' traffic degree) per candidate instead of a full
	// profile replay — with Eval bitwise equal to EvaluatePlacement of the
	// same assignment. The optimizer runs on it internally; it is exported
	// for callers building their own searches (DESIGN.md §10).
	PlaceScorer = place.Scorer
)

// NewProfile returns an empty traffic profile over ranks ranks.
func NewProfile(ranks int) *Profile { return place.NewProfile(ranks) }

// EvaluatePlacement prices a traffic profile under a candidate topology by
// replaying it through a fresh placement meter.
func EvaluatePlacement(p *Profile, topo *Topology) (PlaceEval, error) {
	return place.Evaluate(p, topo)
}

// OptimizePlacement searches rank→node assignments of profile p against
// the meter's makespan: a greedy co-location seed refined by seeded local
// search over delta-priced moves, never evaluating worse than the input
// placement start when the machine is derived from it. start may be nil
// to search from scratch (then opts.PerNode is required). Set
// opts.Anneal for simulated annealing instead of the default hill climb
// — same budget, same determinism per seed, better at escaping local
// minima on irregular traffic.
func OptimizePlacement(p *Profile, start *Topology, opts PlaceOptions) (PlaceResult, error) {
	return place.Optimize(p, start, opts)
}

// NewPlaceScorer builds an incremental evaluator for profile p starting
// at the given rank→node assignment, with links priced by intra/inter.
// Construction replays the profile once; every move after that is priced
// by delta.
func NewPlaceScorer(p *Profile, assign []int, intra, inter NetConfig) (*PlaceScorer, error) {
	return place.NewScorer(p, assign, intra, inter)
}

// Named errors of the placement optimizer.
var (
	ErrPlaceProfile  = place.ErrProfile
	ErrPlaceRanks    = place.ErrRanks
	ErrPlaceOptions  = place.ErrOptions
	ErrPlaceCapacity = place.ErrCapacity
)

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
	// SweepStats are the engine's cumulative cache/coalescing counters.
	SweepStats = sweep.Stats
	// SweepRequestError names the request behind a failed sweep run; it
	// wraps ErrSweepRequest.
	SweepRequestError = sweep.RequestError
)

// ErrSweepRequest is the sentinel every failed sweep request wraps.
var ErrSweepRequest = sweep.ErrRequest

// NewSweep starts a sweep engine. The zero SweepOptions means one worker
// per CPU and the default cache size.
func NewSweep(opts SweepOptions) *Sweep { return sweep.New(opts) }

// PrepareJob hashes job's task list once, so the requests a sweep builds
// from the result — the same job under many configs — each cost a few
// hundred bytes of hashing instead of the whole DAG. The job's Tasks must
// not be mutated afterwards.
func PrepareJob(job SimJob) *PreparedJob { return sweep.Prepare(job) }

// WriteSweepMetricsCSV writes per-request stage timings as CSV, one row
// per request; SweepBatchMetrics collects them from a batch's responses.
func WriteSweepMetricsCSV(w io.Writer, ms []SweepMetrics) error {
	return sweep.WriteMetricsCSV(w, ms)
}

// SweepBatchMetrics extracts the per-request metrics of a batch in order.
func SweepBatchMetrics(resps []SweepResponse) []SweepMetrics {
	return sweep.BatchMetrics(resps)
}

// The multi-tenant service layer (internal/serve, DESIGN.md §12): a Serve
// wraps one sweep engine behind per-tenant bounded queues drained by
// deficit-round-robin at configured weights, with admission control (queue
// caps + token-bucket rate limits) that rejects fast with ErrServeAdmission
// instead of queueing unbounded work, and a graceful drain for shutdown.
// cmd/appfitd serves this over HTTP/JSON; cmd/appfit-load drives it.
type (
	// Serve is the multi-tenant server; one instance serves any number of
	// submitting goroutines.
	Serve = serve.Server
	// ServeOptions names the tenants and sizes the worker pool, DRR
	// quantum and engine.
	ServeOptions = serve.Options
	// ServeTenant is one tenant's admission and scheduling config: name,
	// DRR weight, queue cap, token-bucket rate/burst.
	ServeTenant = serve.TenantConfig
	// ServeResponse is one request's outcome with its service metrics.
	ServeResponse = serve.Response
	// ServeMetrics is the flat per-request service record: tenant,
	// admission wait, queue wait, then the engine's stage timings.
	ServeMetrics = serve.Metrics
	// ServeStats is the server's accounting snapshot (admitted, rejected,
	// completed, failed, queued, inflight — per tenant and total).
	ServeStats = serve.Stats
	// ServeAdmissionError is a rejection's detail: tenant, reason and the
	// size of the bounced batch. It wraps ErrServeAdmission.
	ServeAdmissionError = serve.AdmissionError
)

// ErrServeAdmission is the sentinel every admission rejection wraps.
var ErrServeAdmission = serve.ErrAdmission

// NewServe starts a multi-tenant server over opts.Engine (or a fresh
// engine when nil). At least one tenant is required.
func NewServe(opts ServeOptions) (*Serve, error) { return serve.New(opts) }

// ParseServeTenants parses a "name=weight[/rate[/burst[/cap]]],..." tenant
// spec, the format cmd/appfitd's -tenants flag uses.
func ParseServeTenants(spec string) ([]ServeTenant, error) { return serve.ParseTenants(spec) }

// WriteServeMetricsCSV writes tenant-labeled per-request service metrics
// as CSV, one row per request; ServeBatchMetrics collects them from a
// batch's responses.
func WriteServeMetricsCSV(w io.Writer, ms []ServeMetrics) error {
	return serve.WriteMetricsCSV(w, ms)
}

// ServeBatchMetrics extracts the service metrics of a batch in order.
func ServeBatchMetrics(resps []ServeResponse) []ServeMetrics {
	return serve.BatchMetrics(resps)
}
