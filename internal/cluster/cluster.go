// Package cluster is the virtual-time cluster simulator: the stand-in for
// the paper's Marenostrum III testbed (up to 64 nodes × 16 cores). It
// list-schedules a task DAG over simulated nodes and cores, models the
// replication machinery's costs (input checkpoint, duplicate execution on a
// spare core, output comparison, restore + re-execution on faults) and
// charges cross-node dependencies to a latency/bandwidth network model.
//
// The paper's scalability and overhead results (Figures 4-6) are statements
// about parallel makespans at core counts far beyond this host, so they are
// measured here in virtual time; DESIGN.md §2 records the substitution. The
// real goroutine runtime (internal/rt) and this simulator share workload
// DAG builders, and they call the same recovery rule (vote.Recovery): a
// task result is adopted once two surviving executions agree, here once
// two are clean. A differential test runs random DAGs and fault scripts
// through both engines and requires equal recovery counters.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"appfit/internal/fault"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
	"appfit/internal/vote"
)

// Task is one node of the DAG to simulate.
type Task struct {
	// Label names the task kind (e.g. "potrf") for reports.
	Label string
	// Node is the home node (rank) the task is pinned to.
	Node int
	// Cost is the task's compute demand on one core.
	Cost simtime.Time
	// ArgBytes is the argument footprint: FIT estimation, checkpoint and
	// restore costs scale with it.
	ArgBytes int64
	// OutBytes is the compared-output size; 0 means use ArgBytes.
	OutBytes int64
	// Deps lists predecessor task indices.
	Deps []int
	// DepBytes[i] is the payload carried by edge Deps[i] when it crosses
	// nodes (nil means all edges carry zero bytes beyond latency).
	DepBytes []int64
}

// Job is a complete workload DAG.
type Job struct {
	Name  string
	Tasks []Task
}

// ErrJob is the sentinel wrapped by every Validate rejection, so callers
// can errors.Is a malformed DAG without matching message text.
var ErrJob = errors.New("cluster: invalid job")

// ErrStalled is the sentinel wrapped by Run when the DAG never drains — a
// dependency cycle or scheduler bug, not a simulated fault.
var ErrStalled = errors.New("cluster: simulation stalled")

// Validate checks DAG well-formedness: dependencies must point backwards.
// Task and edge counts must fit the simulator's 32-bit event payloads.
func (j Job) Validate(nodes int) error {
	edges := 0
	for i := range j.Tasks {
		t := &j.Tasks[i]
		if edges += len(t.Deps); i >= math.MaxInt32 || edges > math.MaxInt32 {
			return fmt.Errorf("cluster: more than %d tasks or dependency edges: %w", math.MaxInt32, ErrJob)
		}
		if t.Node < 0 || t.Node >= nodes {
			return fmt.Errorf("cluster: task %d pinned to node %d of %d: %w", i, t.Node, nodes, ErrJob)
		}
		if t.DepBytes != nil && len(t.DepBytes) != len(t.Deps) {
			return fmt.Errorf("cluster: task %d has %d deps but %d dep-bytes: %w", i, len(t.Deps), len(t.DepBytes), ErrJob)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("cluster: task %d depends on %d (must be earlier): %w", i, d, ErrJob)
			}
		}
		if t.Cost < 0 {
			return fmt.Errorf("cluster: task %d has negative cost: %w", i, ErrJob)
		}
	}
	return nil
}

// Config parameterizes one simulation run.
type Config struct {
	// Nodes and CoresPerNode shape the machine (defaults 1 and 1; with a
	// Topo, Nodes defaults to Topo.Ranks()).
	Nodes, CoresPerNode int
	// Topo places the simulated nodes on physical machines: cross-node
	// dependency payloads between co-located nodes are charged the
	// topology's intra-node model on their own link, node-crossing ones the
	// inter-node model serialized per physical cable — the same
	// simnet.Topology the dist layer's Sim transport and hierarchical
	// collectives consume, so both execution engines price communication
	// from one source of truth. Topo must place at least Nodes ranks
	// (Run returns a wrapped simnet.ErrTopology otherwise). nil is the flat
	// fabric: every node pair its own simnet.Marenostrum() link. Any other
	// flat fabric is a one-rank-per-node topology,
	// simnet.BlockTopology(n, 1, cfg, cfg).
	Topo *simnet.Topology
	// ReplicaCores adds a per-node pool of spare cores that replica
	// executions (and recovery re-executions) run on, the paper's
	// "task replicas are executed on spare cores" setup (§V-A2): the
	// resource cost exceeds 100% but primaries keep their cores. 0 means
	// replicas compete with primaries for CoresPerNode.
	ReplicaCores int
	// Replicated[i] selects task i for replication; nil replicates none.
	Replicated []bool
	// Injector draws per-execution fault outcomes (default none). The
	// paper's scalability runs use fixed per-task rates
	// (fault.NewFixedRate).
	Injector fault.Injector
}

// Normalized returns the config with every defaulted field resolved to the
// value Run will actually use (machine shape, injector). Run normalizes
// internally; callers that derive content-addressed identity from a Config
// (internal/sweep's results cache) normalize first so that a zero field and
// its explicit default digest identically.
func (c Config) Normalized() Config {
	if c.Nodes < 1 {
		c.Nodes = 1
		if c.Topo != nil {
			c.Nodes = c.Topo.Ranks()
		}
	}
	if c.CoresPerNode < 1 {
		c.CoresPerNode = 1
	}
	if c.Injector == nil {
		c.Injector = &fault.NoFaults{}
	}
	return c
}

// All returns a slice replicating every one of n tasks.
func All(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// Result is the outcome of a simulation run.
type Result struct {
	// Makespan is the virtual completion time of the whole job.
	Makespan simtime.Time
	// BusyTime is the summed core-occupancy of all executions (including
	// redundant ones and recovery).
	BusyTime simtime.Time
	// PrimaryTime is the summed cost of primary executions only.
	PrimaryTime simtime.Time
	// RedundantTime is replica + re-execution core time.
	RedundantTime simtime.Time
	// OverheadTime is checkpoint + compare + restore time.
	OverheadTime simtime.Time
	// Replicated counts tasks that ran with a replica.
	Replicated int
	// SDCDetected / DUERecovered / Reexecutions count recovery activity.
	SDCDetected, DUERecovered, Reexecutions int
	// Messages / BytesSent / WireBytes summarize network traffic;
	// WireBytes is the portion that crossed physical-node boundaries
	// (everything, without a Config.Topo).
	Messages  uint64
	BytesSent int64
	WireBytes int64
}

// OverheadPct returns the percentage makespan increase over base.
func (r Result) OverheadPct(base Result) float64 {
	if base.Makespan == 0 {
		return 0
	}
	return 100 * (float64(r.Makespan) - float64(base.Makespan)) / float64(base.Makespan)
}

// Speedup returns base.Makespan / r.Makespan.
func (r Result) Speedup(base Result) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(base.Makespan) / float64(r.Makespan)
}

type taskState struct {
	depsLeft    int32
	outstanding int32 // executions in flight
	// rule decides a replicated task's recovery; clean records that one of
	// its executions finished clean, the result a later clean one agrees
	// with (simulated SDCs never coincide).
	rule    vote.Recovery
	started bool
	done    bool
	clean   bool
}

// The simulator's three events, dispatched by sim.handle.
const (
	// evExecDone(task, attempt): one execution leaves its core.
	evExecDone simtime.Kind = iota + 1
	// evCompared(task): the output comparison of a replicated task's
	// finished executions completes (Figure 2 step 3).
	evCompared
	// evDeliver(lo, hi): a producer's data reaches a consumer node, releasing
	// the successors of layout segment edges[lo:hi].
	evDeliver
)

type sim struct {
	job Job
	cfg Config
	eng *simtime.Engine
	net *simnet.Network

	states []taskState
	succs  *Layout // successor adjacency, shared read-only between runs
	free   []int   // free cores per node
	// ready is the per-node priority queue of runnable executions, keyed
	// (task index, attempt) — program order: earlier tasks are usually on
	// the critical path (panel factorizations before trailing updates), the
	// lookahead priority a real dataflow runtime gives them. The queued
	// value is the execution's core-time cost.
	ready []readyHeap
	// Spare-core pool, in play when cfg.ReplicaCores > 0: replica and
	// recovery executions queue here instead of competing with primaries.
	freeR  []int
	readyR []readyHeap

	res       Result
	remaining int
}

// spare reports whether an attempt runs on the spare-core pool.
func (s *sim) spare(attempt int) bool {
	return s.cfg.ReplicaCores > 0 && attempt > 0
}

// Run simulates the job on the configured machine and returns the result.
// An invalid DAG returns an error wrapping ErrJob. Fault exhaustion marks
// the task done after vote.MaxAttempts attempts (counted in Reexecutions),
// where the runtime's bounded recovery reports a failed vote. Run lays the
// job out and builds the run's scratch afresh; a caller simulating one job
// under many configs lays it out once (NewLayout) and runs the Layout,
// which reuses its scratch.
func Run(job Job, cfg Config) (Result, error) {
	cfg = cfg.Normalized()
	l, err := NewLayout(job, cfg.Nodes)
	if err != nil {
		return Result{}, err
	}
	return l.newSim().run(cfg)
}

// newSim builds a run scratch for l's job: every mutable slice is sized
// here from the job and the machine, so the runs it serves allocate
// nothing per task or per event, and a reused scratch nothing at all.
func (l *Layout) newSim() *sim {
	nodes := len(l.perNode)
	s := &sim{
		job:    l.job,
		eng:    simtime.New(),
		states: make([]taskState, len(l.job.Tasks)),
		succs:  l,
		free:   make([]int, nodes),
		ready:  make([]readyHeap, nodes),
		freeR:  make([]int, nodes),
		readyR: make([]readyHeap, nodes),
	}
	s.eng.Handle(s.handle)
	s.net = simnet.New(s.eng, simnet.Marenostrum())
	return s
}

// run resets s for cfg, normalized for s's layout, and simulates it. The
// reset is total: whatever state an earlier run left, s starts as newSim
// built it. Before returning, run drops every reference to cfg, so a
// pooled scratch keeps nothing of its caller's alive.
func (s *sim) run(cfg Config) (Result, error) {
	if cfg.Topo != nil && cfg.Topo.Ranks() < cfg.Nodes {
		return Result{}, fmt.Errorf("cluster: %d-rank topology under %d nodes: %w",
			cfg.Topo.Ranks(), cfg.Nodes, simnet.ErrTopology)
	}
	s.reset(cfg)
	for i := range s.job.Tasks {
		if s.states[i].depsLeft = int32(len(s.job.Tasks[i].Deps)); s.states[i].depsLeft == 0 {
			s.launch(i)
		}
	}
	s.eng.Run()
	s.res.Messages = s.net.Messages()
	s.res.BytesSent = s.net.BytesSent()
	s.res.WireBytes = s.net.WireBytes()
	s.res.Makespan = s.eng.Now()
	s.cfg = Config{}
	s.net.Reset(nil)
	if s.remaining != 0 {
		return Result{}, fmt.Errorf("cluster: %d tasks never completed (DAG cycle or scheduler bug): %w", s.remaining, ErrStalled)
	}
	return s.res, nil
}

// reset readies s to simulate cfg from time 0.
func (s *sim) reset(cfg Config) {
	s.cfg = cfg
	s.eng.Reset()
	s.net.Reset(cfg.Topo)
	clear(s.states)
	s.res = Result{}
	s.remaining = len(s.job.Tasks)
	// At most one event per busy core is pending, plus compares and
	// deliveries in flight; the queue grows past this only on the latter.
	s.eng.Grow(min(len(s.job.Tasks), cfg.Nodes*(cfg.CoresPerNode+cfg.ReplicaCores)))
	// A task has at most two executions in flight (primary and replica, or
	// one re-execution), so a node's tasks bound its queues. A queue rarely
	// holds more than a few executions per core, though, so reserve that
	// and let a wide DAG's burst grow the slice.
	shared := 1
	if cfg.ReplicaCores == 0 && cfg.Replicated != nil {
		shared = 2
	}
	reserve := 4 * (cfg.CoresPerNode + cfg.ReplicaCores)
	for n, tasks := range s.succs.perNode {
		s.free[n], s.freeR[n] = cfg.CoresPerNode, cfg.ReplicaCores
		s.ready[n], s.readyR[n] = s.ready[n][:0], s.readyR[n][:0]
		s.ready[n].grow(min(shared*int(tasks), reserve))
		if cfg.ReplicaCores > 0 {
			s.readyR[n].grow(min(int(tasks), reserve))
		}
	}
}

func (s *sim) handle(k simtime.Kind, a, b int32) {
	switch k {
	case evExecDone:
		s.execDone(int(a), int(b))
	case evCompared:
		s.compared(int(a))
	case evDeliver:
		s.release(a, b)
	}
}

// memBWBytesPerSec prices checkpoint/restore/compare memory traffic: input
// snapshots and output comparisons stream cache-resident blocks, not cold
// DRAM, at 32 GB/s.
const memBWBytesPerSec = 32e9

func (s *sim) memCost(bytes int64) simtime.Time {
	return simtime.FromSeconds(float64(bytes) / memBWBytesPerSec)
}

func (s *sim) outBytes(t *Task) int64 {
	if t.OutBytes > 0 {
		return t.OutBytes
	}
	return t.ArgBytes
}

func (s *sim) replicated(i int) bool {
	return s.cfg.Replicated != nil && i < len(s.cfg.Replicated) && s.cfg.Replicated[i]
}

// launch enqueues the initial execution(s) of task i.
func (s *sim) launch(i int) {
	st := &s.states[i]
	st.started = true
	t := &s.job.Tasks[i]
	if s.replicated(i) {
		s.res.Replicated++
		// Primary carries the input-checkpoint cost (Figure 2 step 1).
		ck := s.memCost(t.ArgBytes)
		s.res.OverheadTime += ck
		st.outstanding = 2
		s.enqueue(i, 0, t.Cost+ck)
		s.enqueue(i, 1, t.Cost)
	} else {
		st.outstanding = 1
		s.enqueue(i, 0, t.Cost)
	}
}

// enqueue makes one execution of task i runnable on its home node.
func (s *sim) enqueue(i, attempt int, cost simtime.Time) {
	node := s.job.Tasks[i].Node
	q := &s.ready[node]
	if s.spare(attempt) {
		q = &s.readyR[node]
	}
	q.push(i, attempt, cost)
	s.trySchedule(node)
}

// trySchedule starts queued executions on node while cores are free.
func (s *sim) trySchedule(node int) {
	for s.free[node] > 0 && len(s.ready[node]) > 0 {
		s.free[node]--
		s.start(&s.ready[node])
	}
	if s.cfg.ReplicaCores > 0 {
		for s.freeR[node] > 0 && len(s.readyR[node]) > 0 {
			s.freeR[node]--
			s.start(&s.readyR[node])
		}
	}
}

// start pops q's first execution onto a core its caller freed.
func (s *sim) start(q *readyHeap) {
	i, attempt, cost := q.pop()
	s.res.BusyTime += cost
	if attempt == 0 {
		s.res.PrimaryTime += s.job.Tasks[i].Cost
	} else {
		s.res.RedundantTime += s.job.Tasks[i].Cost
	}
	s.eng.PostAfter(cost, evExecDone, int32(i), int32(attempt))
}

func (s *sim) execDone(task, attempt int) {
	node := s.job.Tasks[task].Node
	if s.spare(attempt) {
		s.freeR[node]++
	} else {
		s.free[node]++
	}
	st := &s.states[task]
	outcome := s.cfg.Injector.Draw(uint64(task+1), attempt, 0, 0)
	st.outstanding--
	s.trySchedule(node)
	if !s.replicated(task) {
		// Unreplicated: the single execution's result stands, corrupted
		// or not — exactly the unprotected risk the heuristic accepts.
		s.finish(task)
		return
	}
	clean := outcome == fault.None
	if st.rule.Observe(outcome == fault.DUE, clean && st.clean) {
		s.res.SDCDetected++
	}
	st.clean = st.clean || clean
	if st.outstanding > 0 {
		return
	}
	// All in-flight executions of a replicated task have completed:
	// compare outputs (Figure 2 step 3).
	cmp := s.memCost(s.outBytes(&s.job.Tasks[task]))
	s.res.OverheadTime += cmp
	s.eng.PostAfter(cmp, evCompared, int32(task), 0)
}

// compared asks the recovery rule whether a replicated task whose finished
// executions have been compared is adopted, given up on or re-executed.
func (s *sim) compared(task int) {
	st := &s.states[task]
	switch st.rule.Decide(vote.MaxAttempts) {
	case vote.Adopt:
		if st.rule.Crashed() {
			s.res.DUERecovered++
		}
		s.finish(task)
	case vote.GiveUp:
		// The runtime reports an error here; the simulator charges the
		// time and moves on.
		s.finish(task)
	case vote.Reexecute:
		// Restore from checkpoint (step 4) and re-execute.
		s.res.Reexecutions++
		t := &s.job.Tasks[task]
		restore := s.memCost(t.ArgBytes)
		s.res.OverheadTime += restore
		st.outstanding = 1
		s.enqueue(task, st.rule.Attempts(), t.Cost+restore)
	}
}

// finish marks task i complete and releases its successors, charging
// cross-node edges to the network. A producer's data travels to each
// consumer node once, releasing every waiting successor there on arrival —
// the node-local data cache of a distributed dataflow runtime (OmpSs+MPI
// moves a block per node, not per consuming task). The order is the tie
// order of everything downstream: local successors are released (and
// started) in successor order before any send, and sends leave in
// ascending destination node.
func (s *sim) finish(i int) {
	st := &s.states[i]
	if st.done {
		return
	}
	st.done = true
	s.remaining--
	from := s.job.Tasks[i].Node
	l := s.succs
	lo, end := l.remote[i], l.start[i+1]
	s.release(l.start[i], lo)
	for lo < end {
		hi, bytes := l.segment(lo, end)
		at := s.net.Transfer(from, int(l.edges[lo].node), bytes)
		s.eng.Post(at, evDeliver, lo, hi)
		lo = hi
	}
}

// release satisfies one dependency of each successor in edges[lo:hi], in
// order, launching those it leaves with none.
func (s *sim) release(lo, hi int32) {
	for _, e := range s.succs.edges[lo:hi] {
		st := &s.states[e.task]
		st.depsLeft--
		if st.depsLeft == 0 && !st.started {
			s.launch(int(e.task))
		}
	}
}
