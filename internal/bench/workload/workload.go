// Package workload defines the common framework the nine Table-I benchmarks
// are written against: a cost model mapping kernel flop/byte counts to
// virtual time, a scale ladder (tiny test sizes up to paper-sized inputs),
// the Graph a benchmark states its task stream in, once, and the Workload
// each benchmark is one value of, built from a Spec. The same stream of
// labelled tasks with declared in/out/inout region accesses either runs on
// the real runtime (internal/rt) or becomes a cluster.Job for the
// virtual-time simulator, so both engines execute the same DAG.
package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"appfit/internal/buffer"
	"appfit/internal/cluster"
	"appfit/internal/deps"
	"appfit/internal/rt"
	"appfit/internal/simtime"
)

// Scale selects a problem size. Tiny is for unit tests (sub-millisecond),
// Small drives the experiment harness, Medium approaches the paper's sizes.
type Scale int

const (
	// Tiny is the unit-test size.
	Tiny Scale = iota
	// Small is the default experiment size.
	Small
	// Medium is the large experiment size (paper-shaped).
	Medium
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ErrUnknownScale is the sentinel ParseScale wraps for a name that is no
// scale.
var ErrUnknownScale = errors.New("unknown scale")

// ParseScale is String's inverse: the scale named tiny, small or medium.
func ParseScale(name string) (Scale, error) {
	for s := Tiny; s <= Medium; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownScale, name)
}

// CostModel converts kernel work into virtual core time for the simulator.
// The defaults model a ~4 GFLOP/s, 8 GB/s core of the Marenostrum era;
// absolute values only scale the time axis, not the figure shapes.
type CostModel struct {
	NsPerFlop float64
	NsPerByte float64
}

// DefaultCostModel returns the calibrated default.
func DefaultCostModel() CostModel { return CostModel{NsPerFlop: 0.25, NsPerByte: 0.125} }

// Cost returns the virtual time of a kernel doing flops floating-point
// operations over bytes of memory traffic (whichever resource dominates, as
// in a roofline model).
func (cm CostModel) Cost(flops, bytes int64) simtime.Time {
	f := float64(flops) * cm.NsPerFlop
	b := float64(bytes) * cm.NsPerByte
	if b > f {
		f = b
	}
	if f < 1 {
		f = 1
	}
	return simtime.Time(f)
}

// Verifier checks a finished workload's numeric result.
type Verifier func() error

// Spec states one Table-I benchmark: its row of the table and the two parts
// that differ between benchmarks, its task graph and its data.
type Spec struct {
	// Name is the benchmark's registry key (e.g. "cholesky").
	Name string
	// Description is the Table I summary line, PaperSize its problem/block
	// size text.
	Description, PaperSize string
	// Distributed reports whether the paper ran it across nodes.
	Distributed bool
	// InputBytes is the input footprint at a scale, the size Table I prints.
	InputBytes func(Scale) int64
	// Tasks is the task count at a scale, which pre-sizes a job's task
	// list; nil when only emitting the graph tells.
	Tasks func(Scale) int
	// Graph states the benchmark's task graph at a scale.
	Graph func(*Graph, Scale)
	// Data allocates and initialises the benchmark's data at a scale: the
	// fixed map from region to buffer a runtime graph hands its tasks, and
	// the check of the result to run after Taskwait.
	Data func(Scale) (func(Region) buffer.Buffer, Verifier)
}

// Workload is one Table-I benchmark. It holds its Spec behind a pointer, so
// a registry of benchmarks is a table of words.
type Workload struct{ s *Spec }

// New returns the benchmark s states.
func New(s Spec) Workload { return Workload{&s} }

// Name is the benchmark's registry key.
func (w Workload) Name() string { return w.s.Name }

// Distributed reports whether the paper ran the benchmark across nodes.
func (w Workload) Distributed() bool { return w.s.Distributed }

// Description is the Table I summary line.
func (w Workload) Description() string { return w.s.Description }

// PaperSize is Table I's problem/block size text.
func (w Workload) PaperSize() string { return w.s.PaperSize }

// InputBytes is the benchmark input footprint at the given scale.
func (w Workload) InputBytes(s Scale) int64 { return w.s.InputBytes(s) }

// BuildRT allocates the benchmark's data, emits its Graph to the real
// runtime and returns a verifier to call after Taskwait: the first error a
// task body recorded, or else the data's check.
func (w Workload) BuildRT(r *rt.Runtime, s Scale) Verifier {
	data, check := w.s.Data(s)
	g := NewRTGraph(r, data)
	w.s.Graph(g, s)
	return func() error {
		if err := g.recorded(); err != nil {
			return err
		}
		return check()
	}
}

// BuildJob emits the same Graph, with no data and no task bodies, as a
// cluster-simulator job spread over the given node count.
func (w Workload) BuildJob(s Scale, nodes int, cm CostModel) cluster.Job {
	tasks := 0
	if w.s.Tasks != nil {
		tasks = w.s.Tasks(s)
	}
	g := NewJobGraph(w.s.Name, tasks, nodes, cm)
	w.s.Graph(g, s)
	return g.Job()
}

// Region names one block of a benchmark's data: an array tag and up to
// three block indices, e.g. {Arr: 'A', I: i, J: j} for tile A[i][j]. It is a
// comparable value, so the job builder's region table hashes its sixteen
// bytes (no padding) directly instead of a formatted name.
type Region struct {
	Arr     rune
	I, J, K int32
}

// Acc declares one region access of a Graph task: the region, the mode and
// the bytes the access declares — the task's footprint and the payload of the
// edges it creates in a job. The runtime sizes a task from the buffers it is
// handed instead.
type Acc struct {
	Key   Region
	Mode  deps.Mode
	Bytes int64
}

// RAcc, WAcc and RWAcc are shorthand constructors.
func RAcc(key Region, bytes int64) Acc  { return Acc{Key: key, Mode: deps.In, Bytes: bytes} }
func WAcc(key Region, bytes int64) Acc  { return Acc{Key: key, Mode: deps.Out, Bytes: bytes} }
func RWAcc(key Region, bytes int64) Acc { return Acc{Key: key, Mode: deps.Inout, Bytes: bytes} }

// Graph is where a benchmark states its task graph, once: each Task call
// emits one task in program order to one of two sinks.
//
//   - A job graph (NewJobGraph) derives the simulator's edges from the
//     declared accesses and prices the task's work with a cost model. It has
//     no data and runs nothing, so its bodies may be nil.
//   - A runtime graph (NewRTGraph) submits the task to an rt.Runtime, each
//     access on the buffer the benchmark's data function maps its region to.
//     The home node and the work are the simulator's and are ignored.
//
// A benchmark creates its task bodies only when Runs reports true, so a job
// build allocates nothing for the runtime. A body reports a kernel's failure
// with Record.
type Graph struct {
	nodes int
	job   jobBuilder  // the job sink's state, unused on the runtime
	r     *rt.Runtime // the runtime sink, nil for a job graph
	data  func(Region) buffer.Buffer
	regs  map[Region]rtRegion   // each region's runtime key and buffer, resolved once
	err   atomic.Pointer[error] // the first error a body recorded
}

// rtRegion is a region as the runtime sees it: its key and its buffer.
type rtRegion struct {
	key string
	buf buffer.Buffer
}

// NewJobGraph returns a graph that builds a job named name, spread over
// nodes nodes with work priced by cm. tasks pre-sizes the task list (0 when
// the benchmark cannot tell).
func NewJobGraph(name string, tasks, nodes int, cm CostModel) *Graph {
	g := &Graph{nodes: nodes, job: newJobBuilder(name, tasks, cm)}
	g.job.preds, g.job.accIdx = g.job.predBuf[:0], g.job.accBuf[:0]
	return g
}

// NewRTGraph returns a graph that submits its tasks to r, each access on the
// buffer data returns for its region. data must be a fixed map from region
// to buffer for the life of the graph: the graph calls it once per region,
// on the region's first access, and hands every later access that buffer.
func NewRTGraph(r *rt.Runtime, data func(Region) buffer.Buffer) *Graph {
	return &Graph{nodes: 1, r: r, data: data, regs: make(map[Region]rtRegion)}
}

// Nodes is the node count home nodes are drawn from (1 on the runtime).
func (g *Graph) Nodes() int { return g.nodes }

// Runs reports whether the graph runs its tasks' bodies.
func (g *Graph) Runs() bool { return g.r != nil }

// Task emits a task: its label, home node, kernel work (flops and memory
// bytes, for the cost model), body and region accesses.
func (g *Graph) Task(label string, node int, flops, memBytes int64, body rt.TaskFunc, accs ...Acc) {
	if g.r == nil {
		g.job.Task(label, node, flops, memBytes, accs...)
		return
	}
	args := make([]rt.Arg, len(accs))
	for i, a := range accs {
		reg, ok := g.regs[a.Key]
		if !ok {
			reg = rtRegion{fmt.Sprintf("%c[%d][%d][%d]", a.Key.Arr, a.Key.I, a.Key.J, a.Key.K), g.data(a.Key)}
			g.regs[a.Key] = reg
		}
		args[i] = rt.Arg{Key: reg.key, Mode: a.Mode, Buf: reg.buf}
	}
	g.r.Submit(label, body, args...)
}

// Record keeps err if it is the first non-nil error a task body reports.
// Bodies run concurrently — a replicated task's attempts 0 and 1 included —
// so Record is safe for concurrent use.
func (g *Graph) Record(err error) {
	if err != nil {
		g.err.CompareAndSwap(nil, &err)
	}
}

// recorded returns the first error a body recorded, or nil.
func (g *Graph) recorded() error {
	if e := g.err.Load(); e != nil {
		return *e
	}
	return nil
}

// Job returns a job graph's accumulated job.
func (g *Graph) Job() cluster.Job { return g.job.job }

// jobBuilder accumulates tasks in program order and derives the dependency
// edges (RAW, WAR, WAW) from their declared accesses, exactly like the
// runtime's tracker; cross-node edges carry the bytes of the region that
// created them.
type jobBuilder struct {
	cm  CostModel
	job cluster.Job

	// regions numbers each region seen, one map lookup per access; region
	// r's last writer (-1 none) is writers[r], its readers since that write
	// readers[r].
	regions map[Region]int32
	writers []int
	readers [][]int
	preds   []pred  // the task being added's predecessors; scratch reused across tasks
	accIdx  []int32 // the task being added's accesses' region numbers; scratch reused across tasks

	// A job graph starts preds and accIdx on these, inside its own
	// allocation, so only a task of more than eight accesses or
	// predecessors grows them.
	predBuf [8]pred
	accBuf  [8]int32
}

// pred is one predecessor of the task being added and the largest payload
// among the accesses that depend on it.
type pred struct {
	task  int
	bytes int64
}

// newJobBuilder returns a builder for a named job of about tasks tasks (0
// when the caller does not know; the hint only pre-sizes storage).
func newJobBuilder(name string, tasks int, cm CostModel) jobBuilder {
	return jobBuilder{
		cm:      cm,
		job:     cluster.Job{Name: name, Tasks: make([]cluster.Task, 0, tasks)},
		regions: make(map[Region]int32),
	}
}

// note records that the task being added depends on p through an access of
// bytes. Tasks have a handful of predecessors, so the find is linear.
func (b *jobBuilder) note(p int, bytes int64) {
	for i := range b.preds {
		if b.preds[i].task == p {
			b.preds[i].bytes = max(b.preds[i].bytes, bytes)
			return
		}
	}
	b.preds = append(b.preds, pred{p, bytes})
}

// Task appends a task with the given kernel work and region accesses and
// returns its index. flops and memBytes feed the cost model; the argument
// footprint (FIT estimation, checkpoint size) is the sum of access bytes.
func (b *jobBuilder) Task(label string, node int, flops, memBytes int64, accs ...Acc) int {
	idx := len(b.job.Tasks)
	var argBytes int64
	b.preds, b.accIdx = b.preds[:0], b.accIdx[:0]
	for _, a := range accs {
		argBytes += a.Bytes
		r, ok := b.regions[a.Key]
		if !ok {
			r = int32(len(b.writers))
			b.regions[a.Key] = r
			b.writers, b.readers = append(b.writers, -1), append(b.readers, nil)
		}
		b.accIdx = append(b.accIdx, r)
		w := b.writers[r]
		if a.Mode.Reads() && w >= 0 {
			b.note(w, a.Bytes)
		}
		if a.Mode.Writes() {
			// WAW and WAR edges carry no payload: the successor
			// overwrites the region, it does not consume the data (an
			// inout's consumption is covered by its read access above).
			if w >= 0 {
				b.note(w, 0)
			}
			for _, rd := range b.readers[r] {
				b.note(rd, 0)
			}
		}
	}
	for k, a := range accs {
		r := b.accIdx[k]
		if a.Mode.Writes() {
			b.writers[r], b.readers[r] = idx, b.readers[r][:0]
		}
		if a.Mode == deps.In {
			b.readers[r] = append(b.readers[r], idx)
		}
	}
	t := cluster.Task{
		Label:    label,
		Node:     node,
		Cost:     b.cm.Cost(flops, memBytes),
		ArgBytes: argBytes,
	}
	// Emit edges in sorted predecessor order: discovery order follows the
	// caller's access order, and content-addressed cache keys must not
	// split across otherwise-identical requests.
	if n := len(b.preds); n > 0 {
		slices.SortFunc(b.preds, func(x, y pred) int { return cmp.Compare(x.task, y.task) })
		t.Deps, t.DepBytes = make([]int, n), make([]int64, n)
		for i, p := range b.preds {
			t.Deps[i], t.DepBytes[i] = p.task, p.bytes
		}
	}
	b.job.Tasks = append(b.job.Tasks, t)
	return idx
}
