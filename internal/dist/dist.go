// Package dist is the distributed substrate: the Go equivalent of the
// paper's hybrid OmpSs+MPI execution model (§III). A World holds a set of
// in-process ranks, each owning its own dataflow runtime (internal/rt) with
// its own selector, injector and worker pool — exactly one runtime instance
// per MPI process in the paper's setup. Ranks exchange data blocks through
// communication tasks: Send and Recv are submitted into the rank's dataflow
// graph like any task (they declare accesses on named regions and are gated
// by the dependencies those accesses induce), but they are registered via
// rt.SubmitComm, so the replication engine never duplicates them — a replica
// of a send would put a second message on the wire — and the fault injector
// never corrupts them, because the paper delegates communication failures to
// complementary message-logging protocols (§VI).
//
// All communication is scoped to a communicator (see comm.go): World.Comm
// returns the world communicator spanning every rank, and Comm.Split
// derives isolated sub-groups with densely re-numbered ranks, MPI style.
// Message matching is MPI-flavored: a Recv matches the oldest pending Send
// with the same (context, source, destination, tag) tuple; payloads are
// snapshots taken when the send task fires, so the sender may immediately
// reuse its buffer. The matching and movement of payloads is delegated to a
// pluggable Transport (see transport.go): Direct for pure in-process
// exchange, Sim to charge every message latency and bandwidth on a modeled
// interconnect.
//
// On top of point-to-point, communicators provide dependency-gated
// collectives — Barrier (dissemination), Broadcast (binomial tree),
// Allgather/Allgatherv (ring) and Allreduce (gather+broadcast,
// recursive-doubling tree or Rabenseifner, selected by payload bytes), each
// with a leader-based hierarchical shape on placed Worlds — built from the same comm-task primitive, so they overlap with
// computation under exactly the dataflow rules the paper's hybrid
// applications rely on.
package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/simnet"
)

// Config configures a World.
type Config struct {
	// Ranks is the number of in-process ranks (default 1).
	Ranks int
	// RT returns rank i's runtime configuration. Nil means every rank runs
	// with rt defaults (1 worker, no replication, no faults).
	RT func(rank int) rt.Config
	// Transport moves messages between ranks (default: NewDirect()).
	Transport Transport
	// Topology places the ranks on physical nodes. It steers the
	// algorithms, not the pricing: communicators whose members share nodes
	// auto-select hierarchical collectives (node-local phase → leader
	// exchange → node-local fan-out) over node-local sub-communicators
	// derived from it. To also charge messages by placement, hand
	// the same topology to the transport (NewSimTopology). Nil keeps every
	// layer flat. A topology with fewer ranks than the World records
	// ErrTopology in the World's error set and is ignored.
	Topology *simnet.Topology
}

// pool is the one place a World's short-lived memory comes from: message
// payloads (leased by the send task, returned by the receive task),
// collective staging (stageF64, returned at Shutdown) and every rank's
// engine copies — each replicated attempt's writable arguments — through
// rt.NewOn. It belongs to the process, not to a World, because Worlds are
// short: a loop that builds a World per iteration finds the buffers of the
// previous one, where a per-World pool would die cold each time. Safe
// because every buffer leaves it either as a full copy of its source
// (Lease) or to be fully overwritten before its first read (GetF64), and
// comes back only when its one holder is done with it.
var pool = buffer.NewPool()

// frame is the payload of a message that carries none (a barrier round). It
// is its own type so a receive can tell it from a leased payload — which may
// itself be empty — and never hands it to the pool.
type frame struct{ buffer.U8 }

// noPayload is the one frame every payload-free send ships.
var noPayload buffer.Buffer = frame{}

// World is a set of communicating ranks. Create with NewWorld, communicate
// through Comm (the world communicator, or sub-communicators derived with
// Comm.Split), and finish with Shutdown, which drains every rank's dataflow
// graph and aggregates their errors.
type World struct {
	tr    Transport
	topo  *simnet.Topology // nil means flat (one rank per node)
	ranks []*Rank
	world *Comm
	// nextCtx mints communicator context ids; 0 is the world communicator.
	nextCtx atomic.Uint64

	sent atomic.Uint64
	// posted counts receives posted to the transport and not yet delivered:
	// what the shutdown watchdog waits on.
	posted atomic.Int64

	errMu sync.Mutex
	errs  []error

	// staged tracks every pool buffer handed out by stageF64, so Shutdown can
	// return the lot to the pool once the graphs have drained.
	stageMu sync.Mutex
	staged  []buffer.F64
	// pool0 is the pool's traffic when the World started and poolEnd, once
	// Shutdown has drained it, when it stopped; Stats reports the traffic
	// between the two.
	pool0   buffer.PoolStats
	poolEnd atomic.Pointer[buffer.PoolStats]

	shutOnce sync.Once
	shutErr  error
}

// Rank is one member of a World: a rank id plus its private runtime.
type Rank struct {
	w  *World
	id int
	rt *rt.Runtime
}

// NewWorld starts cfg.Ranks runtimes and wires them to the transport.
func NewWorld(cfg Config) *World {
	n := cfg.Ranks
	if n < 1 {
		n = 1
	}
	tr := cfg.Transport
	if tr == nil {
		tr = NewDirect()
	}
	w := &World{tr: tr, ranks: make([]*Rank, n), pool0: pool.Stats()}
	if topo := cfg.Topology; topo != nil {
		if topo.Ranks() < n {
			w.addErr(fmt.Errorf("dist: %d-rank topology under a %d-rank world: %w",
				topo.Ranks(), n, ErrTopology))
		} else {
			w.topo = topo
		}
	}
	// A Sim transport must also cover the world: otherwise its meter would
	// index the placement out of range on the first cross-rank send — a
	// panic on a worker goroutine, not a reportable error. Record the
	// mismatch and fall back to an unpriced Direct transport instead.
	if sim, ok := tr.(*Sim); ok && sim.Topology().Ranks() < n {
		w.addErr(fmt.Errorf("dist: %d-rank transport topology under a %d-rank world (messages flow unpriced): %w",
			sim.Topology().Ranks(), n, ErrTopology))
		w.tr = NewDirect()
	}
	for i := range w.ranks {
		var rc rt.Config
		if cfg.RT != nil {
			rc = cfg.RT(i)
		}
		w.ranks[i] = &Rank{w: w, id: i, rt: rt.NewOn(pool, rc)}
	}
	w.world = newComm(w, 0, w.ranks)
	return w
}

// nodeOf returns world rank id's node: its topology node, or itself when
// the World is flat.
func (w *World) nodeOf(id int) int {
	if w.topo == nil {
		return id
	}
	return w.topo.NodeOf(id)
}

// MessagesSent returns the number of messages sent so far across all ranks:
// each executed send task counts exactly once, however the task's rank
// replicates its compute — comm tasks are never replicated.
func (w *World) MessagesSent() uint64 { return w.sent.Load() }

// Stats aggregates the runtime counters of all ranks (see rt.Stats.Add for
// the aggregation semantics). Pool is the traffic of the process-wide World
// pool from this World's start to its Shutdown — payloads, staging and every
// rank's engine copies, each lease counted once (the ranks share the pool
// and report none of it themselves); a World alive at the same time adds
// its traffic too.
func (w *World) Stats() rt.Stats {
	var total rt.Stats
	for _, r := range w.ranks {
		total.Add(r.rt.Stats())
	}
	now := w.poolEnd.Load()
	if now == nil {
		st := pool.Stats()
		now = &st
	}
	total.Pool = buffer.PoolStats{
		Leases:  now.Leases - w.pool0.Leases,
		Hits:    now.Hits - w.pool0.Hits,
		Returns: now.Returns - w.pool0.Returns,
	}
	return total
}

// Shutdown drains and stops every rank's runtime (concurrently, so pending
// cross-rank messages can still flow while ranks quiesce), closes the
// transport, and returns the joined errors of all ranks plus any
// communication errors (type/length mismatches on receive, closed-transport
// receives), each annotated with its rank. A receive that can never match —
// the world deadlocked on dangling communication — is detected by a
// watchdog and reported, with its rank, label and Match, as an
// ErrClosed-wrapped error instead of hanging. Shutdown is idempotent.
func (w *World) Shutdown() error {
	w.shutOnce.Do(func() {
		stop := make(chan struct{})
		go w.watchdog(stop)
		rankErrs := make([]error, len(w.ranks))
		var wg sync.WaitGroup
		for i, r := range w.ranks {
			wg.Add(1)
			go func(i int, r *Rank) {
				defer wg.Done()
				if err := r.rt.Shutdown(); err != nil {
					rankErrs[i] = fmt.Errorf("dist: rank %d: %w", i, err)
				}
			}(i, r)
		}
		wg.Wait()
		close(stop)
		w.tr.Close()
		w.stageMu.Lock()
		pool.PutF64(w.staged...)
		w.staged = nil
		w.stageMu.Unlock()
		end := pool.Stats()
		w.poolEnd.Store(&end)
		w.errMu.Lock()
		all := append(w.errs, rankErrs...)
		w.errMu.Unlock()
		w.shutErr = errors.Join(all...)
	})
	return w.shutErr
}

// watchdog breaks the one deadlock the dataflow rules cannot prevent: every
// rank quiescent except receives no future send can match (because the
// matching sends were never submitted, or are transitively gated behind the
// posted receives themselves). A rank can make no further progress by
// itself iff it runs no task body and has nothing ready; when that holds for
// every rank at once while receives are posted, the world is wedged.
// Detection requires three consecutive stuck samples with no task
// completions in between, so a world caught between a delivery and the
// successors it releases cannot be misread as deadlock. On detection the
// transport is closed: every posted receive fails with ErrClosed and
// reports its rank, label and Match, the graphs drain, and Shutdown reports
// the join.
func (w *World) watchdog(stop <-chan struct{}) {
	const probe = 20 * time.Millisecond
	stuckRuns := 0
	var lastDone uint64
	for {
		select {
		case <-stop:
			return
		case <-time.After(probe): //lint:simdet deadlock watchdog samples real goroutines, not simulated time
		}
		done := uint64(0)
		for _, r := range w.ranks {
			done += r.rt.Stats().Completed
		}
		if !w.stuckOnRecvs() || (stuckRuns > 0 && done != lastDone) {
			stuckRuns, lastDone = 0, done
			continue
		}
		stuckRuns++
		lastDone = done
		if stuckRuns < 3 {
			continue
		}
		w.addErr(fmt.Errorf("dist: shutdown deadlock: %d posted receive(s) can never match: %w", w.posted.Load(), ErrClosed))
		w.tr.Close()
		return
	}
}

// stuckOnRecvs reports whether, at this instant, no rank can make progress
// except through a receive matching: at least one receive is posted, and no
// rank runs a task body or has one ready to run.
func (w *World) stuckOnRecvs() bool {
	for _, r := range w.ranks {
		if r.rt.Executing() != 0 || r.rt.ReadyPending() != 0 {
			return false
		}
	}
	return w.posted.Load() > 0
}

// stageF64 leases an n-element staging buffer from the pool for the
// lifetime of the World; Shutdown returns every lease after the graphs
// drain. Contents are UNDEFINED — callers must fully overwrite before the
// first read, which every collective staging site does (receive CopyFrom or
// an init copy gates every fold that reads it).
func (w *World) stageF64(n int) buffer.F64 {
	b := pool.GetF64(n)
	w.stageMu.Lock()
	w.staged = append(w.staged, b)
	w.stageMu.Unlock()
	return b
}

func (w *World) addErr(err error) {
	w.errMu.Lock()
	w.errs = append(w.errs, err)
	w.errMu.Unlock()
}

// commSend submits a comm task that, when its dependencies resolve, leases
// a copy of args[payload] from the pool (noPayload if payload < 0) and hands
// it to the transport for m's mailbox. The copy is whole and made before the
// send task returns, so the sender may overwrite its buffer at once.
func (r *Rank) commSend(label string, m Match, payload int, args ...rt.Arg) uint64 {
	w := r.w
	return r.rt.SubmitComm(label, func(ctx *rt.Ctx) {
		p := noPayload
		if payload >= 0 {
			p = pool.Lease(ctx.Buf(payload))
		}
		w.tr.Send(m, p)
		w.sent.Add(1)
	}, args...)
}

// commRecv submits a comm task that, once its dependencies resolve, posts a
// receive for m's next message and detaches: its worker moves on, and the
// task completes — releasing whatever reads args[dst] — when the message is
// delivered. Posting at readiness, not at submit, is what keeps a message
// from overwriting a destination an earlier task still reads. Delivery
// copies the payload into args[dst] if dst >= 0; either way — and whether or
// not the copy fit — the payload's lease ends there, its one delivery.
func (r *Rank) commRecv(label string, m Match, dst int, args ...rt.Arg) uint64 {
	return r.rt.SubmitComm(label, func(ctx *rt.Ctx) {
		var into buffer.Buffer
		if dst >= 0 {
			into = ctx.Buf(dst) // a comm task's Ctx holds the real buffers
		}
		done := ctx.Detach()
		r.w.posted.Add(1)
		r.w.tr.Post(m, func(p buffer.Buffer, err error) {
			r.w.posted.Add(-1)
			if err == nil && into != nil {
				err = into.CopyFrom(p)
			}
			if err != nil {
				r.w.addErr(fmt.Errorf("dist: rank %d %s %+v: %w", r.id, label, m, err))
			}
			if _, empty := p.(frame); p != nil && !empty {
				pool.Return(p)
			}
			done.Release()
		})
	}, args...)
}
