// Frozen pre-sharding baseline. This is the single-global-mutex dist.Direct
// the PR "shard the hot submit→ready→complete path" replaced (as of PR 1),
// kept verbatim here so the rendezvous benchmarks can report old-vs-new on
// the same binary and the recorded BENCH_scale.json trajectory stays
// self-contained. Do not "fix" it: its whole value is staying what the code
// used to be. (The deps.Tracker of the same vintage sat here until the
// tracker's region half stopped being lock-striped at all; its last numbers
// are archived in CHANGES.md.)
package scale

import (
	"sync"

	"appfit/internal/buffer"
	"appfit/internal/dist"
)

// mutexMatcher is the old dist.Direct: one mutex, one condition variable,
// every Send broadcasting to every blocked receiver in the World.
type mutexMatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[dist.Match][]buffer.Buffer
	closed bool
}

func newMutexMatcher() *mutexMatcher {
	d := &mutexMatcher{queues: make(map[dist.Match][]buffer.Buffer)}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *mutexMatcher) Send(m dist.Match, payload buffer.Buffer) {
	d.mu.Lock()
	d.queues[m] = append(d.queues[m], payload)
	d.mu.Unlock()
	d.cond.Broadcast()
}

func (d *mutexMatcher) Recv(m dist.Match) (buffer.Buffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if q := d.queues[m]; len(q) > 0 {
			p := q[0]
			if len(q) == 1 {
				delete(d.queues, m)
			} else {
				d.queues[m] = q[1:]
			}
			return p, nil
		}
		if d.closed {
			return nil, dist.ErrClosed
		}
		d.cond.Wait()
	}
}

func (d *mutexMatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.cond.Broadcast()
}
