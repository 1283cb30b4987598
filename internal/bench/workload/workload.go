// Package workload defines the common framework the nine Table-I benchmarks
// are written against: a cost model mapping kernel flop/byte counts to
// virtual time, a scale ladder (tiny test sizes up to paper-sized inputs),
// and a JobBuilder that converts a task stream with declared accesses into a
// cluster.Job for the virtual-time simulator — using the same
// in/out/inout region semantics the real runtime (internal/rt) uses, so both
// engines execute the same DAG.
package workload

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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

// Workload is one Table-I benchmark.
type Workload interface {
	// Name is the benchmark's registry key (e.g. "cholesky").
	Name() string
	// Distributed reports whether the paper ran it across nodes.
	Distributed() bool
	// Description is the Table I summary line.
	Description() string
	// PaperSize is Table I's problem/block size text.
	PaperSize() string
	// InputBytes is the benchmark input footprint at the given scale,
	// the quantity thresholds derive from.
	InputBytes(s Scale) int64
	// BuildRT submits the task graph to the real runtime and returns a
	// verifier to call after Taskwait.
	BuildRT(r *rt.Runtime, s Scale) Verifier
	// BuildJob builds the same DAG as a cluster-simulator job, spread
	// over the given node count.
	BuildJob(s Scale, nodes int, cm CostModel) cluster.Job
}

// Region names one block of a benchmark's data for JobBuilder: an array
// tag and up to three block indices, e.g. {Arr: 'A', I: i, J: j} for tile
// A[i][j]. It is a comparable value, so the builder's region table hashes
// its sixteen bytes (no padding) directly instead of a formatted name.
type Region struct {
	Arr     rune
	I, J, K int32
}

// Acc declares one region access for JobBuilder tasks.
type Acc struct {
	Key   Region
	Mode  deps.Mode
	Bytes int64
}

// RAcc, WAcc and RWAcc are shorthand constructors.
func RAcc(key Region, bytes int64) Acc  { return Acc{Key: key, Mode: deps.In, Bytes: bytes} }
func WAcc(key Region, bytes int64) Acc  { return Acc{Key: key, Mode: deps.Out, Bytes: bytes} }
func RWAcc(key Region, bytes int64) Acc { return Acc{Key: key, Mode: deps.Inout, Bytes: bytes} }

// JobBuilder accumulates tasks in program order and derives the dependency
// edges (RAW, WAR, WAW) from their declared accesses, exactly like the
// runtime's tracker; cross-node edges carry the bytes of the region that
// created them.
type JobBuilder struct {
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
}

// pred is one predecessor of the task being added and the largest payload
// among the accesses that depend on it.
type pred struct {
	task  int
	bytes int64
}

// NewJobBuilder returns a builder for a named job of about tasks tasks (0
// when the caller does not know; the hint only pre-sizes storage) over a
// benchmark input of inputBytes (the footprint thresholds derive from).
func NewJobBuilder(name string, tasks int, inputBytes int64, cm CostModel) *JobBuilder {
	return &JobBuilder{
		cm:      cm,
		job:     cluster.Job{Name: name, InputBytes: inputBytes, Tasks: make([]cluster.Task, 0, tasks)},
		regions: make(map[Region]int32),
	}
}

// note records that the task being added depends on p through an access of
// bytes. Tasks have a handful of predecessors, so the find is linear.
func (b *JobBuilder) note(p int, bytes int64) {
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
func (b *JobBuilder) Task(label string, node int, flops, memBytes int64, accs ...Acc) int {
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

// Job returns the accumulated job.
func (b *JobBuilder) Job() cluster.Job { return b.job }
