// Package rt is the task-parallel dataflow runtime — the Go equivalent of
// OmpSs + Nanos that the paper implements its framework in (§III). Programs
// submit tasks with declared in/out/inout accesses on named regions; the
// runtime infers dependencies, executes ready tasks on a worker pool, and —
// when the configured selection heuristic chooses a task — replicates it:
//
//  1. the task's inputs are checkpointed: every attempt writes private
//     copies, and the dependence graph lets no other task write the task's
//     arguments before it completes, so the real buffers themselves keep
//     the inputs bitwise until the result is adopted;
//  2. a duplicate task descriptor is created and scheduled;
//  3. the original and the replica execute in parallel and their outputs
//     are compared at the end (the only synchronization point);
//  4. on mismatch (SDC detected) the task re-executes on fresh copies of its
//     writable arguments, taken from that checkpoint;
//  5. a majority vote over the three results selects the task's output.
//
// Crashes (DUEs) are absorbed by the surviving replica or by re-execution
// from the checkpoint. Faults are supplied by an injector (internal/fault),
// driven by the same per-task FIT estimates the heuristic uses.
//
// Communication tasks (SubmitComm) are never replicated. One may detach
// (Ctx.Detach) to complete on an external event, such as a message's
// delivery, instead of on its body's return, so a worker only ever runs
// bodies and never waits for a message.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/ckpt"
	"appfit/internal/core"
	"appfit/internal/deps"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/sched"
	"appfit/internal/trace"
	"appfit/internal/vote"
)

// Arg is one declared task argument: a named region, an access mode and the
// buffer holding its data. Region keys play the role of the pointer-based
// region identifiers a C runtime uses.
type Arg struct {
	Key  string
	Mode deps.Mode
	Buf  buffer.Buffer
}

// In declares a read-only argument.
func In(key string, b buffer.Buffer) Arg { return Arg{Key: key, Mode: deps.In, Buf: b} }

// Out declares a write-only argument.
func Out(key string, b buffer.Buffer) Arg { return Arg{Key: key, Mode: deps.Out, Buf: b} }

// Inout declares a read-modify-write argument.
func Inout(key string, b buffer.Buffer) Arg { return Arg{Key: key, Mode: deps.Inout, Buf: b} }

// Ctx gives a task body access to the buffers of the current execution
// attempt. Replicated executions receive private copies of the writable
// arguments, so a body must only touch its data through the Ctx.
//
// A Ctx and every buffer it hands out are valid only until the body
// returns: a replicated attempt's buffers are leases from the runtime's
// buffer pool, returned when the task completes and handed to another
// task's attempt next. A body that stashes ctx.Buf(i) (or the Ctx) and
// touches it later reads or scribbles over someone else's scratch. The one
// exception is a comm task's buffers, which are the real arguments (comm
// tasks are never replicated): a detached comm task may write them until it
// releases its Event.
type Ctx struct {
	bufs []buffer.Buffer
	// attempt is the execution attempt index: 0 primary, 1 replica, ≥2
	// re-executions.
	attempt int
	r       *Runtime
	t       *task
}

// NArgs returns the number of declared arguments.
func (c *Ctx) NArgs() int { return len(c.bufs) }

// Buf returns argument i's buffer for this attempt.
func (c *Ctx) Buf(i int) buffer.Buffer { return c.bufs[i] }

// F64 returns argument i as a float64 slice buffer.
func (c *Ctx) F64(i int) buffer.F64 { return c.bufs[i].(buffer.F64) }

// C128 returns argument i as a complex128 slice buffer.
func (c *Ctx) C128(i int) buffer.C128 { return c.bufs[i].(buffer.C128) }

// U8 returns argument i as a byte slice buffer.
func (c *Ctx) U8(i int) buffer.U8 { return c.bufs[i].(buffer.U8) }

// Detach makes the task's completion wait for an external event as well as
// for its body: the task completes — its successors are released, Taskwait
// and Completed count it — once the body has returned and the returned
// Event has been released, in either order. The worker is free as soon as
// the body returns. This is OpenMP's detach clause; a communication layer
// uses it to complete a receive task on message delivery without holding a
// worker for the wait. Only a comm task (SubmitComm) may detach, once.
func (c *Ctx) Detach() Event {
	if !c.t.comm {
		panic("rt: Detach outside a comm task")
	}
	if !c.t.events.CompareAndSwap(0, 2) {
		panic("rt: task detached twice")
	}
	return Event{r: c.r, t: c.t}
}

// Event is a detached task's external completion event (see Ctx.Detach).
type Event struct {
	r *Runtime
	t *task
}

// Release fires the event. Call it exactly once, from any goroutine, before
// or after the task's body returns.
func (e Event) Release() {
	if e.t.events.Add(-1) == 0 {
		e.r.complete(e.t, -1, nil)
	}
}

// TaskFunc is a task body. It must be deterministic in its declared
// arguments: the replication engine compares outputs bitwise, so any hidden
// input (time, global state, map iteration order) would be reported as SDC.
type TaskFunc func(ctx *Ctx)

// Config configures a Runtime.
type Config struct {
	// Workers is the thread-pool size (default 1).
	Workers int
	// Selector decides which tasks to replicate (default: ReplicateNone).
	Selector core.Selector
	// Rates are the node failure rates for FIT estimation (default:
	// fit.Roadrunner()).
	Rates fit.Rates
	// RatesSet marks Rates as explicitly provided (allows zero rates).
	RatesSet bool
	// Injector supplies fault outcomes (default: no faults).
	Injector fault.Injector
	// Tracer, if non-nil, records per-task events.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Selector == nil {
		c.Selector = core.ReplicateNone{}
	}
	if !c.RatesSet && c.Rates == (fit.Rates{}) {
		c.Rates = fit.Roadrunner()
	}
	if c.Injector == nil {
		c.Injector = &fault.NoFaults{}
	}
	return c
}

// exposureHours converts a task's FIT rates into per-execution failure
// probabilities: p = 1-exp(-λ·T) with T = exposureHours. Real per-task
// exposures are sub-second and would make faults unobservably rare; one
// hour of exposure per execution is the documented acceleration used by
// the fault experiments (DESIGN.md §1).
const exposureHours = 1

// Stats are cumulative runtime counters. All fields are totals since New.
type Stats struct {
	Submitted      uint64
	Completed      uint64
	Replicated     uint64
	SDCDetected    uint64
	SDCRecovered   uint64
	DUERecovered   uint64
	UnprotectedSDC uint64
	UnprotectedDUE uint64
	VoteFailures   uint64
	Reexecutions   uint64
	// TaskTimeNs sums primary execution durations; ReplicatedTimeNs sums
	// primary durations of replicated tasks; RedundantTimeNs sums replica
	// and re-execution durations.
	TaskTimeNs       int64
	ReplicatedTimeNs int64
	RedundantTimeNs  int64
	// DepEdges is the number of dependency edges the submitted accesses
	// declare, counting those whose predecessor had already completed: a
	// property of the program, not of its timing.
	DepEdges int
	// Checkpoint counts Figure 2's checkpoints and restores.
	Checkpoint ckpt.Stats
	// Pool is the traffic of the buffer pool every attempt's private copies
	// are leased from: Hits/Leases is the share of engine copies that
	// reused a buffer instead of allocating one. A runtime started on
	// someone else's pool (NewOn) leaves it zero.
	Pool buffer.PoolStats
}

// Add accumulates other into s, for aggregating counters across runtimes
// (e.g. the ranks of a dist.World): counters, times and byte totals sum.
func (s *Stats) Add(other Stats) {
	s.Submitted += other.Submitted
	s.Completed += other.Completed
	s.Replicated += other.Replicated
	s.SDCDetected += other.SDCDetected
	s.SDCRecovered += other.SDCRecovered
	s.DUERecovered += other.DUERecovered
	s.UnprotectedSDC += other.UnprotectedSDC
	s.UnprotectedDUE += other.UnprotectedDUE
	s.VoteFailures += other.VoteFailures
	s.Reexecutions += other.Reexecutions
	s.TaskTimeNs += other.TaskTimeNs
	s.ReplicatedTimeNs += other.ReplicatedTimeNs
	s.RedundantTimeNs += other.RedundantTimeNs
	s.DepEdges += other.DepEdges
	s.Checkpoint.Saves += other.Checkpoint.Saves
	s.Checkpoint.Restores += other.Checkpoint.Restores
	s.Checkpoint.BytesSaved += other.Checkpoint.BytesSaved
	s.Pool.Leases += other.Pool.Leases
	s.Pool.Hits += other.Pool.Hits
	s.Pool.Returns += other.Pool.Returns
}

// PctTasksReplicated returns 100 × Replicated / Completed.
func (s Stats) PctTasksReplicated() float64 {
	if s.Completed == 0 {
		return 0
	}
	return 100 * float64(s.Replicated) / float64(s.Completed)
}

// PctTimeReplicated returns 100 × ReplicatedTimeNs / TaskTimeNs.
func (s Stats) PctTimeReplicated() float64 {
	if s.TaskTimeNs == 0 {
		return 0
	}
	return 100 * float64(s.ReplicatedTimeNs) / float64(s.TaskTimeNs)
}

// task is a submitted task's one record: the dependence graph's node
// carries it as payload, and the ready queues hold it.
type task struct {
	id    uint64
	node  *deps.Node[*task]
	label string
	fn    TaskFunc
	args  []Arg
	est   fit.Task
	pDUE  float64
	pSDC  float64
	// comm marks a side-effecting communication task (dist.Send/Recv):
	// never replicated (a replica would duplicate the message) and never
	// fault-injected — the paper delegates communication failures to
	// complementary protocols (§VI, Martsinkevich et al.).
	comm bool
	// events is 0 unless the body detached (Ctx.Detach); then it counts the
	// two completion events still to come — the body's return and the
	// Event's release — and whichever takes it to zero completes the task.
	events atomic.Int32
}

// Runtime executes submitted tasks. Create with New, submit with Submit,
// synchronize with Taskwait, stop with Shutdown.
type Runtime struct {
	cfg   Config
	pool  *sched.Queue[*task]
	graph deps.Graph[*task]
	// acc is the access list Submit hands the graph, rebuilt in place per
	// task: Submit is single-goroutine, like the graph's Register.
	acc []deps.Access
	// bufs is where every engine copy comes from: executeReplicated leases
	// the attempt sets from it. borrowed marks a pool handed to NewOn, whose
	// traffic its owner reports.
	bufs     *buffer.Pool
	borrowed bool
	est      *fit.Estimator

	nextID atomic.Uint64

	// inflight counts submitted tasks not yet completed; inflightCv, under
	// inflightMu, wakes Taskwait when it reaches zero.
	inflight   atomic.Int64
	inflightMu sync.Mutex
	inflightCv *sync.Cond

	workersWG sync.WaitGroup
	closed    atomic.Bool

	// executing counts task bodies currently running.
	executing atomic.Int32

	errMu    sync.Mutex
	firstErr error

	scratchMu sync.Mutex
	// scratch holds the idle replication scratch sets, at most one per
	// worker that has ever replicated. // guarded by scratchMu
	scratch []*replScratch

	submitted, completed, replicated         atomic.Uint64
	sdcDetected, sdcRecovered, dueRecovered  atomic.Uint64
	unprotSDC, unprotDUE, voteFails, reexecs atomic.Uint64
	taskNs, replNs, redundantNs              atomic.Int64
	// checkpointed sums the replicated tasks' read-argument bytes.
	checkpointed atomic.Int64
}

// poisonLeases makes every new Runtime's pool scribble over the buffers it
// takes back (buffer.Pool.Poison). Only this package's TestMain sets it, so
// the package's tests run with use-after-return and read-before-overwrite
// turned into wrong answers.
var poisonLeases bool

// New starts a Runtime with cfg's workers running, leasing its engine
// copies from a pool of its own.
func New(cfg Config) *Runtime {
	bufs := buffer.NewPool()
	if poisonLeases {
		bufs.Poison()
	}
	return start(bufs, false, cfg)
}

// NewOn is New on a buffer pool the caller owns and may share between
// runtimes — a dist.World runs every rank on one, so an attempt in one rank
// reuses the buffer an attempt in another just returned, and a World
// started after this one finds the pool warm. The owner reports the
// pool's traffic: Stats().Pool of a runtime started here stays zero, so
// summing the runtimes of one pool counts no lease twice.
func NewOn(bufs *buffer.Pool, cfg Config) *Runtime { return start(bufs, true, cfg) }

func start(bufs *buffer.Pool, borrowed bool, cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	r := &Runtime{
		cfg:      cfg,
		pool:     sched.NewQueue[*task](cfg.Workers),
		bufs:     bufs,
		borrowed: borrowed,
		est:      fit.NewEstimator(cfg.Rates),
	}
	r.inflightCv = sync.NewCond(&r.inflightMu)
	for w := 0; w < cfg.Workers; w++ {
		r.workersWG.Add(1)
		go r.worker(w)
	}
	return r
}

// Submit registers a task with its declared arguments and schedules it when
// its dependencies are satisfied. It returns the task id. Submit and
// SubmitComm are the program's submitting thread: one goroutine per runtime
// calls them, in program order, and never after Shutdown.
func (r *Runtime) Submit(label string, fn TaskFunc, args ...Arg) uint64 {
	return r.submit(label, fn, args, false)
}

// SubmitComm registers a side-effecting communication task: it participates
// in dependency tracking like any task but is never replicated and never
// fault-injected, because re-executing it would duplicate its external
// effect (a message). Fault tolerance for communication is the domain of
// the message-logging protocols the paper cites as complementary.
func (r *Runtime) SubmitComm(label string, fn TaskFunc, args ...Arg) uint64 {
	return r.submit(label, fn, args, true)
}

func (r *Runtime) submit(label string, fn TaskFunc, args []Arg, comm bool) uint64 {
	if r.closed.Load() {
		panic("rt: Submit after Shutdown")
	}
	id := r.nextID.Add(1)
	argBytes := int64(0)
	r.acc = r.acc[:0]
	for _, a := range args {
		r.acc = append(r.acc, deps.Access{Key: a.Key, Mode: a.Mode})
		if a.Buf != nil {
			argBytes += a.Buf.SizeBytes()
		}
	}
	est := r.est.Estimate(id, argBytes)
	t := &task{id: id, label: label, fn: fn, args: args, est: est, comm: comm}
	t.node = &deps.Node[*task]{Val: t}
	if !comm { // a comm task draws no fault, so it has no failure probabilities
		t.pDUE = fit.FailureProb(est.DUE, exposureHours)
		t.pSDC = fit.FailureProb(est.SDC, exposureHours)
	}
	r.inflight.Add(1)
	r.submitted.Add(1)
	if r.graph.Register(t.node, r.acc) {
		r.pool.Submit(-1, t)
	}
	return id
}

// Taskwait blocks until every task submitted so far (and any recovery work)
// has completed. It is the dataflow barrier; unlike a fork-join join it does
// not prevent already-submitted independent tasks from overlapping.
func (r *Runtime) Taskwait() {
	r.inflightMu.Lock()
	for r.inflight.Load() > 0 {
		r.inflightCv.Wait()
	}
	r.inflightMu.Unlock()
}

// Shutdown waits for all tasks, stops the workers, and returns the first
// unrecoverable error (e.g. a failed majority vote), if any.
func (r *Runtime) Shutdown() error {
	r.Taskwait()
	if r.closed.CompareAndSwap(false, true) {
		r.pool.Close()
		r.workersWG.Wait()
	}
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// Stats returns a snapshot of the runtime counters.
func (r *Runtime) Stats() Stats {
	var pool buffer.PoolStats
	if !r.borrowed {
		pool = r.bufs.Stats()
	}
	return Stats{
		Submitted:        r.submitted.Load(),
		Completed:        r.completed.Load(),
		Replicated:       r.replicated.Load(),
		SDCDetected:      r.sdcDetected.Load(),
		SDCRecovered:     r.sdcRecovered.Load(),
		DUERecovered:     r.dueRecovered.Load(),
		UnprotectedSDC:   r.unprotSDC.Load(),
		UnprotectedDUE:   r.unprotDUE.Load(),
		VoteFailures:     r.voteFails.Load(),
		Reexecutions:     r.reexecs.Load(),
		TaskTimeNs:       r.taskNs.Load(),
		ReplicatedTimeNs: r.replNs.Load(),
		RedundantTimeNs:  r.redundantNs.Load(),
		DepEdges:         r.graph.DerivedEdges(),
		Checkpoint: ckpt.Stats{
			Saves:      r.replicated.Load(),
			Restores:   r.reexecs.Load(),
			BytesSaved: r.checkpointed.Load(),
		},
		Pool: pool,
	}
}

func (r *Runtime) setErr(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

func (r *Runtime) worker(w int) {
	defer r.workersWG.Done()
	var own bodyScratch
	for {
		t, ok := r.pool.Get(w)
		if !ok {
			return
		}
		r.execute(t, w, &own)
	}
}

// bodyScratch is what an unreplicated body runs on — the argument list its
// Ctx hands out and the Ctx itself — and the batch a completion releases.
// Each worker owns one, emptied after each use, so it pins no buffer and no
// task between tasks.
type bodyScratch struct {
	bufs  []buffer.Buffer
	ctx   Ctx
	ready []*task
}

// attemptResult is the outcome of one execution attempt of a task.
type attemptResult struct {
	crashed bool
	dur     time.Duration
}

// replScratch is everything one trip through executeReplicated needs besides
// the leased buffers themselves, kept between tasks so a fault-free
// replicated task allocates none of it. A worker takes one for the length
// of executeReplicated and nothing in it outlives that call.
type replScratch struct {
	// The task's access plan, derived once: writes are the argument indices
	// each attempt copies, the ones compared, corrupted by an injected fault
	// and adopted; readBytes is the size of the ones the checkpoint covers.
	// Arguments without a buffer (pure ordering tokens) are in neither.
	writes    []int
	readBytes int64
	// arena backs every per-attempt buffer slice (see carve).
	arena []buffer.Buffer
	// results are the output sets of the attempts that did not crash.
	results [][]buffer.Buffer
	// leased is every buffer to hand back to the pool on the way out.
	leased []buffer.Buffer
	// ctx[0] serves the primary and, after the join, each re-execution;
	// ctx[1] the replica.
	ctx [2]Ctx
	// replica joins the replica's goroutine, which leaves its outcome in
	// replicaRes.
	replica    sync.WaitGroup
	replicaRes attemptResult
}

// carve returns a zeroed n-element slice of the arena. A carving stays valid
// when a later one outgrows the arena: it keeps the backing array it was cut
// from.
func (s *replScratch) carve(n int) []buffer.Buffer {
	if len(s.arena)+n > cap(s.arena) {
		s.arena = make([]buffer.Buffer, 0, 2*cap(s.arena)+n)
	}
	lo := len(s.arena)
	s.arena = s.arena[:lo+n]
	return s.arena[lo : lo+n : lo+n]
}

// plan derives the access plan of args.
func (s *replScratch) plan(args []Arg) {
	s.writes, s.readBytes = s.writes[:0], 0
	for i, a := range args {
		if a.Buf == nil {
			continue
		}
		if a.Mode.Reads() {
			s.readBytes += a.Buf.SizeBytes()
		}
		if a.Mode.Writes() {
			s.writes = append(s.writes, i)
		}
	}
}

// attemptSet carves one attempt's buffers: bufs is what the body sees — a
// leased copy of every argument the task writes, taken from the real buffer,
// and the real buffer itself otherwise — and outs its writable subset, in
// plan order.
func (r *Runtime) attemptSet(t *task, s *replScratch) (bufs, outs []buffer.Buffer) {
	bufs = s.carve(len(t.args))
	for i, a := range t.args {
		if a.Buf != nil && a.Mode.Writes() {
			bufs[i] = r.bufs.Lease(a.Buf)
			s.leased = append(s.leased, bufs[i])
		} else {
			bufs[i] = a.Buf
		}
	}
	outs = s.carve(len(s.writes))
	for k, i := range s.writes {
		outs[k] = bufs[i]
	}
	return bufs, outs
}

// getScratch hands the calling worker a scratch set with t's plan in it.
func (r *Runtime) getScratch(t *task) *replScratch {
	var s *replScratch
	r.scratchMu.Lock()
	if n := len(r.scratch); n > 0 {
		s, r.scratch = r.scratch[n-1], r.scratch[:n-1]
	}
	r.scratchMu.Unlock()
	if s == nil {
		s = new(replScratch)
	}
	s.plan(t.args)
	return s
}

// putScratch ends the life of every lease s holds and shelves s. Nothing may
// still reference an attempt buffer: the replica has joined, results is dead
// and trace.Record holds no buffers.
func (r *Runtime) putScratch(s *replScratch) {
	r.bufs.Return(s.leased...)
	clear(s.leased)
	clear(s.arena)
	clear(s.results)
	s.leased, s.arena, s.results, s.ctx = s.leased[:0], s.arena[:0], s.results[:0], [2]Ctx{}
	r.scratchMu.Lock()
	r.scratch = append(r.scratch, s)
	r.scratchMu.Unlock()
}

// runAttempt executes one attempt on the provided buffer set (outs its
// writable subset), drawing a fault outcome. A DUE crashes the attempt
// (partial writes may remain in the attempt's private buffers); an SDC
// completes and then silently flips one bit of one writable buffer.
func (r *Runtime) runAttempt(t *task, ctx *Ctx, bufs, outs []buffer.Buffer, attempt int) attemptResult {
	outcome := r.cfg.Injector.Draw(t.id, attempt, t.pDUE, t.pSDC)
	start := time.Now()
	if outcome == fault.DUE {
		// The crash interrupts the execution: we model the lost work as a
		// partial write by corrupting the first writable buffer, then
		// abandoning the attempt.
		if len(outs) > 0 {
			b := outs[0]
			if b.BitLen() > 0 {
				b.FlipBit(r.cfg.Injector.BitIndex(t.id, attempt, b.BitLen()))
			}
		}
		return attemptResult{crashed: true, dur: time.Since(start)}
	}
	*ctx = Ctx{bufs: bufs, attempt: attempt, r: r, t: t}
	t.fn(ctx)
	if outcome == fault.SDC {
		r.corrupt(t, attempt, outs)
	}
	return attemptResult{dur: time.Since(start)}
}

// corrupt is an SDC: it flips the bit the injector picks for this attempt
// of outs, an attempt's writable buffers taken end to end as one bit string.
func (r *Runtime) corrupt(t *task, attempt int, outs []buffer.Buffer) {
	total := buffer.TotalBits(outs...)
	if total == 0 {
		return
	}
	bit := r.cfg.Injector.BitIndex(t.id, attempt, total)
	for _, b := range outs {
		if bit < b.BitLen() {
			b.FlipBit(bit)
			return
		}
		bit -= b.BitLen()
	}
}

// Executing returns the number of task bodies currently running. A detached
// task whose body has returned is not running. Together with ReadyPending it
// lets a communication layer detect quiescence (see internal/dist's
// watchdog).
func (r *Runtime) Executing() int { return int(r.executing.Load()) }

// ReadyPending returns the number of ready tasks not yet claimed by a
// worker.
func (r *Runtime) ReadyPending() int { return r.pool.Pending() }

func (r *Runtime) execute(t *task, w int, own *bodyScratch) {
	r.executing.Add(1)
	defer r.executing.Add(-1)
	rec := trace.Record{
		TaskID:   t.id,
		Label:    t.label,
		Worker:   w,
		ArgBytes: t.est.ArgBytes,
		FITDue:   t.est.DUE,
		FITSdc:   t.est.SDC,
	}
	if r.cfg.Tracer != nil {
		rec.Start = time.Now()
	}
	replicate := false
	if !t.comm {
		replicate = r.cfg.Selector.Decide(t.est)
	}
	if replicate {
		r.replicated.Add(1)
		r.executeReplicated(t, &rec)
	} else {
		r.executeUnprotected(t, own, &rec)
	}
	rec.Replicated = replicate
	if !t.comm {
		r.cfg.Selector.Observe(t.est, replicate)
	}
	r.taskNs.Add(int64(rec.Duration))
	if replicate {
		r.replNs.Add(int64(rec.Duration))
	}
	r.redundantNs.Add(int64(rec.ReplicaDur + rec.ReexecDur))
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Add(rec)
	}
	if t.events.Load() == 0 || t.events.Add(-1) == 0 {
		r.complete(t, w, own)
	}
}

// complete is a task's completion: its successors are released, and it
// leaves the books. It runs once per task, on the worker w that ran the body
// (own its scratch) or — when a detached task's Event is released last — on
// the releasing goroutine, with w < 0 and own nil.
func (r *Runtime) complete(t *task, w int, own *bodyScratch) {
	r.completed.Add(1)
	// Release all successors in one batch — onto worker w's deque, or the
	// global queue for w < 0: one lock acquisition and at most len(batch)
	// targeted wakes per completion, instead of a lock+wake per successor.
	var ready []*task
	if own != nil {
		ready = own.ready[:0]
	}
	ready = r.graph.Complete(t.node, ready)
	r.pool.SubmitBatch(w, ready)
	if own != nil {
		clear(ready)
		own.ready = ready[:0]
	}
	if r.inflight.Add(-1) == 0 {
		r.inflightMu.Lock()
		r.inflightCv.Broadcast()
		r.inflightMu.Unlock()
	}
}

// executeUnprotected runs the task once, in place on the real buffers. A DUE
// here would crash the real application; the simulator records the event and
// re-runs the body so downstream tasks still get data (the event count is
// the experiment's measure of unprotected risk). An SDC here silently
// corrupts the real output — it propagates, exactly the threat model.
func (r *Runtime) executeUnprotected(t *task, own *bodyScratch, rec *trace.Record) {
	bufs := own.bufs[:0]
	for _, a := range t.args {
		bufs = append(bufs, a.Buf)
	}
	outcome := fault.None
	if !t.comm {
		outcome = r.cfg.Injector.Draw(t.id, 0, t.pDUE, t.pSDC)
	}
	start := time.Now()
	own.ctx = Ctx{bufs: bufs, attempt: 0, r: r, t: t}
	t.fn(&own.ctx)
	rec.Duration = time.Since(start)
	rec.Attempts = 1
	switch outcome {
	case fault.DUE:
		r.unprotDUE.Add(1)
		rec.Events = append(rec.Events, trace.UnprotectedDUE)
	case fault.SDC:
		var outs []buffer.Buffer // the writable subset, as replScratch.plan takes it
		for _, a := range t.args {
			if a.Buf != nil && a.Mode.Writes() {
				outs = append(outs, a.Buf)
			}
		}
		r.corrupt(t, 0, outs)
		r.unprotSDC.Add(1)
		rec.Events = append(rec.Events, trace.UnprotectedSDC)
	}
	clear(bufs) // the Ctx is dead; the scratch pins no buffer between tasks
	own.bufs, own.ctx = bufs, Ctx{}
}

// event appends to rec's event log when someone will read it.
func (r *Runtime) event(rec *trace.Record, evs ...trace.Event) {
	if r.cfg.Tracer != nil {
		rec.Events = append(rec.Events, evs...)
	}
}

// executeReplicated implements Figure 2. Every copy it makes — each
// attempt's writable arguments — is a lease from r.bufs, and all of them go
// back when it returns.
func (r *Runtime) executeReplicated(t *task, rec *trace.Record) {
	s := r.getScratch(t)
	defer r.putScratch(s)

	// Step 1: checkpoint the inputs. The real buffers are the checkpoint: no
	// attempt writes them before adopt, and the dependence graph lets no
	// other task write them before this one completes.
	r.checkpointed.Add(s.readBytes)
	r.event(rec, trace.Checkpointed)

	// Step 2: duplicate descriptor; both attempts get private writable
	// buffers, and share the read-only ones, which they only read.
	primaryBufs, primaryOuts := r.attemptSet(t, s)
	replicaBufs, replicaOuts := r.attemptSet(t, s)
	r.event(rec, trace.ReplicaCreated)

	s.replica.Add(1)
	go func() { // the replica runs on a spare core
		defer s.replica.Done()
		s.replicaRes = r.runAttempt(t, &s.ctx[1], replicaBufs, replicaOuts, 1)
	}()
	primaryRes := r.runAttempt(t, &s.ctx[0], primaryBufs, primaryOuts, 0)
	s.replica.Wait()
	replicaRes := s.replicaRes

	rec.Duration = primaryRes.dur
	rec.ReplicaDur = replicaRes.dur
	rec.Attempts = 2

	// Steps 3-5: after each round vote.Recovery adopts the latest result
	// once it agrees with an earlier one (the paper's majority vote,
	// iterated), gives up once the attempt budget is spent, and otherwise
	// re-executes from the checkpoint.
	var rule vote.Recovery
	r.observe(&rule, s, rec, primaryRes.crashed, primaryOuts)
	r.observe(&rule, s, rec, replicaRes.crashed, replicaOuts)
	for {
		switch rule.Decide(vote.MaxAttempts) {
		case vote.Adopt:
			if rule.Detected() {
				r.event(rec, trace.Voted)
				r.sdcRecovered.Add(1)
			}
			if rule.Crashed() {
				r.event(rec, trace.DUERecovered)
				r.dueRecovered.Add(1)
			}
			outs := s.results[len(s.results)-1]
			for k, i := range s.writes {
				if err := t.args[i].Buf.CopyFrom(outs[k]); err != nil {
					r.setErr(fmt.Errorf("rt: task %d adopt result: %w", t.id, err))
				}
			}
			return
		case vote.GiveUp:
			r.voteFails.Add(1)
			r.event(rec, trace.VoteFailed)
			r.setErr(fmt.Errorf("rt: task %d: %w", t.id, vote.ErrNoMajority{}))
			return
		}
		res, outs := r.reexecute(t, s, rule.Attempts(), rec)
		r.observe(&rule, s, rec, res.crashed, outs)
	}
}

// observe feeds one finished attempt to rule. A survivor's outputs are
// compared with each earlier survivor's, in the order they finished, and
// then join them; the task's first comparison is its step 3.
func (r *Runtime) observe(rule *vote.Recovery, s *replScratch, rec *trace.Record, crashed bool, outs []buffer.Buffer) {
	agrees := false
	if !crashed {
		if len(s.results) == 1 {
			r.event(rec, trace.Compared)
		}
		for _, prev := range s.results {
			if agrees = (vote.Bitwise{}).Equal(prev, outs); agrees {
				break
			}
		}
		s.results = append(s.results, outs)
	}
	if rule.Observe(crashed, agrees) {
		r.sdcDetected.Add(1)
		r.event(rec, trace.SDCDetected)
	}
}

// reexecute restores the task's initial state from its checkpoint — a fresh
// attempt set, copied from the still pristine real buffers — and runs one
// more attempt on it.
func (r *Runtime) reexecute(t *task, s *replScratch, attempt int, rec *trace.Record) (attemptResult, []buffer.Buffer) {
	bufs, outs := r.attemptSet(t, s)
	r.event(rec, trace.Restored, trace.Reexecuted)
	r.reexecs.Add(1)
	res := r.runAttempt(t, &s.ctx[0], bufs, outs, attempt)
	rec.ReexecDur += res.dur
	rec.Attempts++
	return res, outs
}
