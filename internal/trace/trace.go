// Package trace records per-task execution events: which worker ran a task,
// how long it took, whether it was replicated, and what faults were injected
// and recovered — one record per task, for the Figure 2 walk-through's event
// timeline, per-kernel tables and CSV export. The run's totals (replicated
// tasks and time, detections, recoveries) are rt.Stats, counted from the
// same executions.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is something that happened during one task's lifetime.
type Event int

const (
	// Checkpointed: the task's inputs were saved (Figure 2 step 1).
	Checkpointed Event = iota
	// ReplicaCreated: a duplicate descriptor was scheduled (step 2).
	ReplicaCreated
	// Compared: primary and replica outputs were compared (step 3).
	Compared
	// SDCDetected: the comparison found a mismatch.
	SDCDetected
	// Restored: inputs restored from checkpoint (step 4).
	Restored
	// Reexecuted: the third execution ran.
	Reexecuted
	// Voted: majority vote selected the result (step 5).
	Voted
	// DUERecovered: a crash was absorbed by the replica or a re-execution.
	DUERecovered
	// UnprotectedSDC: an SDC hit an unreplicated task (accepted risk).
	UnprotectedSDC
	// UnprotectedDUE: a crash hit an unreplicated task (accepted risk).
	UnprotectedDUE
	// VoteFailed: all three results disagreed.
	VoteFailed
)

// String implements fmt.Stringer.
func (e Event) String() string {
	names := [...]string{
		"checkpointed", "replica_created", "compared", "sdc_detected",
		"restored", "reexecuted", "voted", "due_recovered",
		"unprotected_sdc", "unprotected_due", "vote_failed",
	}
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// Record is the trace of one task instance.
type Record struct {
	TaskID     uint64
	Label      string
	Worker     int
	Replicated bool
	ArgBytes   int64
	FITDue     float64
	FITSdc     float64
	Start      time.Time
	// Duration is the primary execution's duration; ReplicaDuration and
	// ReexecDuration are zero when those executions did not happen.
	Duration   time.Duration
	ReplicaDur time.Duration
	ReexecDur  time.Duration
	Events     []Event
	Attempts   int
}

// Tracer collects Records. A nil *Tracer is valid and records nothing, so
// the runtime can be run untraced with zero overhead checks.
type Tracer struct {
	mu   sync.Mutex
	recs []Record // guarded by mu
}

// New returns an empty Tracer.
func New() *Tracer { return &Tracer{} }

// Add appends a completed task record.
func (t *Tracer) Add(r Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
}

// Records returns a copy of all records, ordered by task id.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Record, len(t.recs))
	copy(out, t.recs)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TaskID < out[j].TaskID })
	return out
}

// Len returns the number of records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// WriteTimeline writes a human-readable event log of the records that had
// any fault activity, for the Figure 2 walk-through.
func (t *Tracer) WriteTimeline(w io.Writer) {
	for _, r := range t.Records() {
		if len(r.Events) == 0 {
			continue
		}
		fmt.Fprintf(w, "task %d (%s, worker %d, replicated=%v):", r.TaskID, r.Label, r.Worker, r.Replicated)
		for _, e := range r.Events {
			fmt.Fprintf(w, " %s", e)
		}
		fmt.Fprintln(w)
	}
}
