package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for an op's root span); spans of one operation share Op.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. Spans are recorded by
// the benchmark's own goroutine around the calls it makes into each layer,
// so the recorder needs no lock. A nil recorder records nothing: that is
// the untraced run.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its index for end and for
// children to name; -1 from a nil recorder.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, StartNS: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = int64(time.Since(r.t0))
}

// endAfter closes span id with length d instead of the wall time since
// begin: a round's root span counts only the round's timed sections.
func (r *recorder) endAfter(id int, d time.Duration) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = r.spans[id].StartNS + int64(d)
}

// durations returns the length of every span called name, in the given unit.
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// perOp sums, for each operation, the lengths of its spans called name.
func (r *recorder) perOp(name string, unit time.Duration) []float64 {
	return sumPerOp(r.spans, unit, func(i int) (int64, bool) { return r.spans[i].dur(), r.spans[i].Name == name })
}

// selfPerOp sums, for each operation, the self times of the spans keep
// selects — a layer's self time in that operation.
func (r *recorder) selfPerOp(unit time.Duration, keep func(name string) bool) []float64 {
	self := selfTimes(r.spans)
	return sumPerOp(r.spans, unit, func(i int) (int64, bool) { return self[i], keep(r.spans[i].Name) })
}

// sumPerOp adds up value(i) over the spans it selects, one total per
// operation, in the order operations first appear.
func sumPerOp(spans []span, unit time.Duration, value func(i int) (ns int64, ok bool)) []float64 {
	slot := make(map[int]int)
	var out []float64
	for i, s := range spans {
		ns, ok := value(i)
		if !ok {
			continue
		}
		k, seen := slot[s.Op]
		if !seen {
			k = len(out)
			slot[s.Op] = k
			out = append(out, 0)
		}
		out[k] += float64(ns) / float64(unit)
	}
	return out
}

// selfTimes returns each span's self time: its length minus the lengths of
// its children. The benchmark's spans are sequential under their parent, so
// the children's summed length is the part of the interval they cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// overheadPct is what recording cost the traced ops: the spans recorded
// times the measured cost of recording one, as a percentage of the root
// spans' time. The spans wrap calls of tens of microseconds to hundreds of
// milliseconds, so this is far below the run-to-run spread; comparing
// client.op_ms_p50 with an untraced run's op_ms_p50 gives the measured
// difference between the two runs.
func (r *recorder) overheadPct() float64 {
	const n = 4096
	probe := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe", -1, i))
	}
	perSpan := float64(time.Since(t0)) / n
	var rootNS int64
	for _, s := range r.spans {
		if s.Parent < 0 {
			rootNS += s.dur()
		}
	}
	return 100 * ratio(perSpan*float64(len(r.spans)), float64(rootNS))
}

// selfTable prints the per-layer breakdown README.md shows: one row per
// span name with its mean self time per operation. The rows sum to the root
// span's mean length; the root's own row is the remainder no child covers.
func selfTable(w io.Writer, workload string, spans []span) {
	self := selfTimes(spans)
	total := make(map[string]int64)
	count := make(map[string]int)
	var names []string
	var root string
	var rootSum int64
	ops := 0
	for i, s := range spans {
		if _, seen := total[s.Name]; !seen {
			names = append(names, s.Name)
		}
		total[s.Name] += self[i]
		count[s.Name]++
		if s.Parent < 0 {
			root = s.Name
			rootSum += s.dur()
			ops++
		}
	}
	n := float64(ops)
	fmt.Fprintf(w, "-- %s: self time per op over %d traced ops (us)\n", workload, ops)
	var rows float64
	for _, name := range names {
		label := name
		if name == root {
			label = name + " (unattributed)"
		}
		us := ratio(float64(total[name])/1e3, n)
		rows += us
		fmt.Fprintf(w, "  %-38s %12.2f  %5.1f%%  (%.1f spans/op)\n", label, us,
			100*ratio(float64(total[name]), float64(rootSum)), ratio(float64(count[name]), n))
	}
	fmt.Fprintf(w, "  %-38s %12.2f  = op time %.2f\n", "sum of rows", rows, ratio(float64(rootSum)/1e3, n))
}

// buildDir is where everything the benchmark builds or writes lives, inside
// the checkout and named by .gitignore.
const buildDir = ".bench_build"

// writeSpans writes the recorded spans as JSON lines, one span a line with
// its index as "id", to .bench_build/spans-<workload>.jsonl.
func writeSpans(workload string, spans []span) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(buildDir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		line := struct {
			ID int `json:"id"`
			span
		}{i, s}
		if err := enc.Encode(line); err != nil {
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// finishTrace prints the self-time table and writes the span file.
func finishTrace(o options, workload string, rec *recorder) error {
	selfTable(o.log, workload, rec.spans)
	path, err := writeSpans(workload, rec.spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.log, "-- %s: %d spans written to %s\n", workload, len(rec.spans), path)
	return nil
}
