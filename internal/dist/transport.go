// Transport is the message-moving layer under a World. The runtime side of
// dist (Send/Recv comm tasks, collectives) is transport-agnostic: it seals a
// snapshot of the sender's buffer into a payload and asks the Transport to
// deliver it to the matching mailbox. Two implementations ship:
//
//   - Direct: an in-process matcher — a tag+partner rendezvous table with
//     FIFO delivery per mailbox. This is the default and the fastest path.
//   - Sim: Direct plus a virtual interconnect clock — every payload is
//     charged latency and bandwidth through internal/simnet's cost model
//     (per-link serialization included), so a World can report the
//     communication makespan a real fabric would impose.
package dist

import (
	"errors"
	"sync"

	"appfit/internal/buffer"
)

// Class separates traffic kinds so the tags of collective plumbing can never
// collide with user-chosen point-to-point tags.
type Class uint8

const (
	// ClassP2P is user Send/Recv traffic.
	ClassP2P Class = iota
	// ClassBarrier is dissemination-barrier plumbing.
	ClassBarrier
	// ClassBcast is broadcast-tree traffic.
	ClassBcast
	// ClassReduce is reduction gather traffic.
	ClassReduce
	// ClassGather is allgather-ring traffic.
	ClassGather
	// (5 was the uniform ring reduce-scatter's class; the slot stays so the
	// classes after it keep their values.)
	_
	// ClassTree is recursive-doubling tree-allreduce traffic.
	ClassTree
	// ClassGatherv is non-uniform allgather (Allgatherv) traffic.
	ClassGatherv
	// ClassRedScatv is non-uniform reduce-scatter (ReduceScatterv) traffic.
	ClassRedScatv
	// ClassRab is Rabenseifner allreduce (recursive halving + doubling)
	// traffic.
	ClassRab
)

// Match identifies one mailbox: a communicator context, a directed
// (Src, Dst) link — always *world* rank ids, so transports can charge the
// physical link regardless of which communicator the traffic belongs to —
// plus a class, a tag, and a class-private subchannel (the dissemination
// round for barriers, the root for broadcast/reduce trees, the ring or
// doubling step for allgather/reduce-scatter/tree traffic), so two same-tag
// collectives rooted differently can never share a mailbox. Ctx is the
// communicator context id minted at Split time (0 for the world
// communicator): two communicators can carry identical (Src, Dst, Class,
// Tag, Sub) traffic and never rendezvous with each other. Messages with the
// same Match deliver in FIFO order.
type Match struct {
	Ctx      uint64
	Src, Dst int
	Class    Class
	Tag      int
	Sub      int
}

// ErrClosed is returned by Recv when the transport is closed while the
// receive is still unmatched — a shutdown with a dangling Recv.
var ErrClosed = errors.New("dist: transport closed with pending receive")

// Transport moves sealed payloads between ranks. Implementations must be
// safe for concurrent use by all ranks' workers, and must deliver each
// payload to at most one Recv: a payload is a lease the receiving comm task
// hands back to the World pool after its copy, so a second delivery would
// read a buffer that by then belongs to someone else. A transport never
// takes or returns a lease itself — it moves what it is given.
type Transport interface {
	// Send delivers payload to m's mailbox. The payload is private to the
	// transport from this point on (the caller has already snapshotted it).
	Send(m Match, payload buffer.Buffer)
	// Recv blocks until a message is available in m's mailbox and returns
	// the oldest one.
	Recv(m Match) (buffer.Buffer, error)
	// Close unblocks every pending Recv with ErrClosed. Payloads still
	// queued are never delivered: their leases are not returned, and the
	// garbage collector reclaims them with the transport.
	Close()
}

// directShards is the rendezvous table's striping width: Match-hashed, so a
// Send wakes only the receivers parked on its own shard instead of every
// blocked receiver in the World. 128 keeps two of a 256-rank World's
// neighbor links on the same shard rare; power of two so the shard index is
// a mask.
const directShards = 128

// directShard is one stripe of the rendezvous table: its own mutex, its own
// mailbox map, and its own condition variable, so receivers parked here are
// only woken by traffic that hashes here. Each shard carries its own closed
// flag (set by Close under the shard lock) so Recv never needs a second,
// table-wide lock.
type directShard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[Match][]buffer.Buffer
	closed bool
}

// Direct is the in-process rendezvous matcher: an eager-send mailbox table
// keyed by Match, FIFO per mailbox, with receivers blocking until a matching
// message arrives. The table is sharded by Match-hash; see DESIGN.md §6.
type Direct struct {
	shards [directShards]directShard
}

// NewDirect returns an empty matcher.
func NewDirect() *Direct {
	d := &Direct{}
	for i := range d.shards {
		sh := &d.shards[i]
		sh.queues = make(map[Match][]buffer.Buffer)
		sh.cond = sync.NewCond(&sh.mu)
	}
	return d
}

// shard maps a mailbox to its stripe: FNV-1a over the Match fields with a
// splitmix64 finalizer, so the dense small integers of rank ids and tags
// (0, 1, 2, …) spread over the stripes instead of clustering in the low ones.
func (d *Direct) shard(m Match) *directShard {
	h := uint64(2166136261)
	for _, f := range [...]uint64{m.Ctx, uint64(m.Src), uint64(m.Dst), uint64(m.Class), uint64(m.Tag), uint64(m.Sub)} {
		h = (h ^ f) * 16777619
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return &d.shards[h&(directShards-1)]
}

// Send implements Transport: the message is buffered immediately (MPI
// eager mode); the sender never blocks on the receiver. Only receivers
// parked on m's shard are woken.
func (d *Direct) Send(m Match, payload buffer.Buffer) {
	sh := d.shard(m)
	sh.mu.Lock()
	sh.queues[m] = append(sh.queues[m], payload)
	sh.mu.Unlock()
	// Broadcast, not Signal: the shard's waiters may be parked on different
	// mailboxes, and a Signal could wake only a non-matching one, which
	// would re-park and strand the matching receiver.
	sh.cond.Broadcast()
}

// Recv implements Transport.
func (d *Direct) Recv(m Match) (buffer.Buffer, error) {
	sh := d.shard(m)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if q := sh.queues[m]; len(q) > 0 {
			p := q[0]
			if len(q) == 1 {
				delete(sh.queues, m)
			} else {
				// Nil the popped head before reslicing: q[1:] shares the
				// backing array, which would otherwise keep the delivered
				// payload reachable until the whole mailbox drains.
				q[0] = nil
				sh.queues[m] = q[1:]
			}
			return p, nil
		}
		if sh.closed {
			return nil, ErrClosed
		}
		sh.cond.Wait()
	}
}

// Close implements Transport.
func (d *Direct) Close() {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
		sh.cond.Broadcast()
	}
}

// Pending returns the number of sent-but-unreceived messages; tests use it
// to assert a World drained its traffic.
func (d *Direct) Pending() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			n += len(q)
		}
		sh.mu.Unlock()
	}
	return n
}
