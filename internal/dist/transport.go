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
	// (8 was the non-uniform reduce-scatter's class; the slot stays so the
	// classes after it keep their values.)
	_
	// ClassRab is Rabenseifner allreduce (recursive halving + doubling)
	// traffic.
	ClassRab
)

// Match identifies one mailbox: a communicator context, a directed
// (Src, Dst) link — always *world* rank ids, so transports can charge the
// physical link regardless of which communicator the traffic belongs to —
// plus a class, a tag, and a class-private subchannel (the dissemination
// round for barriers, the root for broadcast/reduce trees, the ring or
// doubling step for allgather/tree traffic), so two same-tag
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

// ErrClosed is delivered to a posted receive when the transport is closed
// while the receive is still unmatched — a shutdown with a dangling receive.
var ErrClosed = errors.New("dist: transport closed with pending receive")

// Transport moves sealed payloads between ranks. Implementations must be
// safe for concurrent use by all ranks' workers, and must deliver each
// payload to at most one posted receive: a payload is a lease the receiving
// comm task hands back to the World pool after its copy, so a second
// delivery would read a buffer that by then belongs to someone else. A
// transport never takes or returns a lease itself — it moves what it is
// given.
type Transport interface {
	// Send delivers payload to m's mailbox. The payload is private to the
	// transport from this point on (the caller has already snapshotted it).
	Send(m Match, payload buffer.Buffer)
	// Post registers a receive on m's mailbox and returns without waiting:
	// deliver is called exactly once, with m's oldest message not yet
	// delivered, or with ErrClosed if the transport closes first. It may
	// run on the caller's goroutine before Post returns (the message was
	// already there) or on a sender's or closer's goroutine, never under a
	// transport lock. Posts on one mailbox are served in posting order.
	Post(m Match, deliver func(buffer.Buffer, error))
	// Close fails every posted receive with ErrClosed, and any receive
	// posted later that finds no message. Payloads still queued are never
	// delivered: their leases are not returned, and the garbage collector
	// reclaims them with the transport.
	Close()
}

// directShards is the rendezvous table's striping width: Match-hashed, so
// traffic on unrelated mailboxes rarely shares a lock. Power of two so the
// shard index is a mask.
const directShards = 128

// entry is one waiting half of a rendezvous: a payload no receive has taken
// yet, or a posted receive (deliver set) no payload has reached yet.
type entry struct {
	payload buffer.Buffer
	deliver func(buffer.Buffer, error)
}

// directShard is one stripe of the rendezvous table. Each carries its own
// closed flag (set by Close under the shard lock) so Post never needs a
// second, table-wide lock.
type directShard struct {
	mu sync.Mutex
	// queues is each mailbox's FIFO. A FIFO holds payloads or posted
	// receives, never both: whichever side arrives takes the other side's
	// oldest entry if there is one, and queues itself otherwise.
	// // guarded by mu
	queues map[Match][]entry
	closed bool // guarded by mu
}

// Direct is the in-process rendezvous matcher: an eager-send mailbox table
// keyed by Match, FIFO per mailbox, where a receive is a posted callback, not
// a waiting goroutine. The table is sharded by Match-hash; see DESIGN.md §6.
type Direct struct {
	shards [directShards]directShard
}

// NewDirect returns an empty matcher.
func NewDirect() *Direct {
	d := &Direct{}
	for i := range d.shards {
		d.shards[i].queues = make(map[Match][]entry)
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

// Send implements Transport: the message goes to m's oldest posted receive,
// or is buffered until one is posted (MPI eager mode); the sender never
// waits for the receiver.
func (d *Direct) Send(m Match, payload buffer.Buffer) { d.meet(m, entry{payload: payload}) }

// Post implements Transport.
func (d *Direct) Post(m Match, deliver func(buffer.Buffer, error)) {
	d.meet(m, entry{deliver: deliver})
}

// meet is one side of m's rendezvous arriving: it takes the other side's
// oldest waiting entry and delivers outside the lock, or queues itself. A
// receive that finds no payload on a closed transport fails instead.
func (d *Direct) meet(m Match, e entry) {
	sh := d.shard(m)
	sh.mu.Lock()
	q, posting := sh.queues[m], e.deliver != nil
	if len(q) > 0 && (q[0].deliver != nil) != posting {
		recv, send := q[0], e
		if posting {
			recv, send = e, q[0]
		}
		// Clear the popped head before reslicing: q[1:] shares the backing
		// array, which would otherwise keep the delivered payload (or the
		// served receive) reachable until the whole mailbox drains.
		q[0] = entry{}
		if len(q) == 1 {
			delete(sh.queues, m)
		} else {
			sh.queues[m] = q[1:]
		}
		sh.mu.Unlock()
		recv.deliver(send.payload, nil)
		return
	}
	closed := posting && sh.closed
	if !closed {
		sh.queues[m] = append(q, e)
	}
	sh.mu.Unlock()
	if closed {
		e.deliver(nil, ErrClosed)
	}
}

// Recv blocks until m's oldest undelivered message arrives and returns it:
// a Post whose deliver hands the result to the calling goroutine.
func (d *Direct) Recv(m Match) (buffer.Buffer, error) {
	var res struct {
		p    buffer.Buffer
		err  error
		done sync.WaitGroup
	}
	res.done.Add(1)
	d.Post(m, func(p buffer.Buffer, err error) {
		res.p, res.err = p, err
		res.done.Done()
	})
	res.done.Wait()
	return res.p, res.err
}

// Close implements Transport. Every posted receive leaves the table before
// any is failed, so a send a failed receive releases cannot satisfy another
// receive this Close is failing.
func (d *Direct) Close() {
	var dangling []entry
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		sh.closed = true
		for m, q := range sh.queues { //lint:maporder each failed receive names its own Match; their order carries nothing
			if q[0].deliver != nil {
				dangling = append(dangling, q...)
				delete(sh.queues, m)
			}
		}
		sh.mu.Unlock()
	}
	for _, r := range dangling {
		r.deliver(nil, ErrClosed)
	}
}
