package cluster

import "sync"

// layout is a job's successor adjacency laid out flat, once: the edges
// grouped by producer, and each producer's group ordered as the simulator
// consumes it when the producer finishes — first the edges to consumers on
// the producer's own node, in successor order (consumer index, then
// position in the consumer's Deps), then the node-crossing edges by
// ascending destination node, in successor order within a node. One run of
// equal-destination remote edges is a segment: the unit of delivery (a
// producer's data travels to each consuming node once).
//
// A Layout depends on the job and the machine size alone and never writes
// to the job; one Layout is shared by any number of concurrent Runs. Its
// one mutable part is a sync.Pool of run scratch (task states, core counts,
// ready queues, an event engine and a network, each sized for the job), so
// a warmed Run allocates nothing. A run that returns puts its scratch back;
// one that panics drops it.
type Layout struct {
	job   Job
	edges []succEdge
	// Producer i's edges are edges[start[i]:start[i+1]]; those from
	// remote[i] on cross nodes.
	start, remote []int32
	// perNode[n] counts the tasks pinned to node n.
	perNode []int32
	scratch sync.Pool // of *sim, built by newSim
}

type succEdge struct {
	task  int32 // successor task index
	node  int32 // the successor's home node
	bytes int64
}

// NewLayout validates job for a nodes-node machine and lays it out once.
// The Layout keeps job.Tasks (shared, not copied): the caller gives up
// write access to them.
func NewLayout(job Job, nodes int) (*Layout, error) {
	if err := job.Validate(nodes); err != nil {
		return nil, err
	}
	return newLayout(job, nodes), nil
}

// Run simulates the laid-out job under cfg: bitwise what Run(job, cfg)
// returns, without laying the job out again. A cfg whose normalized node
// count is not the layout's lays the job out afresh.
func (l *Layout) Run(cfg Config) (Result, error) {
	cfg = cfg.Normalized()
	if cfg.Nodes != len(l.perNode) {
		return Run(l.job, cfg)
	}
	s, _ := l.scratch.Get().(*sim)
	if s == nil {
		s = l.newSim()
	}
	res, err := s.run(cfg)
	l.scratch.Put(s)
	return res, err
}

// newLayout builds job's layout for a nodes-node machine; job must have
// passed Validate(nodes).
func newLayout(job Job, nodes int) *Layout {
	tasks := job.Tasks
	n := len(tasks)
	l := &Layout{
		job:     job,
		start:   make([]int32, n+1),
		remote:  make([]int32, n),
		perNode: make([]int32, nodes),
	}
	// Count every producer's edges into start[d+1] and the local ones among
	// them into remote[d]; prefix sums turn the counts into offsets.
	for i := range tasks {
		t := &tasks[i]
		l.perNode[t.Node]++
		for _, d := range t.Deps {
			l.start[d+1]++
			if tasks[d].Node == t.Node {
				l.remote[d]++
			}
		}
	}
	for i := 0; i < n; i++ {
		l.remote[i] += l.start[i]
		l.start[i+1] += l.start[i]
	}
	// Visit consumers by (node, index) — a counting sort — scattering each
	// edge to its producer's local or remote cursor: local edges land in
	// successor order, remote ones by ascending destination.
	first := make([]int32, nodes+1)
	for nd, c := range l.perNode {
		first[nd+1] = first[nd] + c
	}
	order := make([]int32, n)
	for i := range tasks {
		nd := tasks[i].Node
		order[first[nd]] = int32(i)
		first[nd]++
	}
	local := append([]int32(nil), l.start[:n]...)
	remote := append([]int32(nil), l.remote...)
	l.edges = make([]succEdge, l.start[n])
	for _, i := range order {
		t := &tasks[i]
		for k, d := range t.Deps {
			e := succEdge{task: i, node: int32(t.Node)}
			if t.DepBytes != nil {
				e.bytes = t.DepBytes[k]
			}
			cur := &remote[d]
			if tasks[d].Node == t.Node {
				cur = &local[d]
			}
			l.edges[*cur] = e
			*cur++
		}
	}
	return l
}

// segment returns the end of the segment that starts at edge lo of a
// producer whose edges end at end, and the payload the segment carries: the
// largest of its edges' bytes, and at least 0.
func (l *Layout) segment(lo, end int32) (hi int32, bytes int64) {
	dst := l.edges[lo].node
	for hi = lo; hi < end && l.edges[hi].node == dst; hi++ {
		bytes = max(bytes, l.edges[hi].bytes)
	}
	return hi, bytes
}
