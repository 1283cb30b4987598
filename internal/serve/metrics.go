package serve

import (
	"io"
	"slices"
	"strconv"
	"time"

	"appfit/internal/sweep"
	"appfit/internal/trace"
)

// Metrics is the per-request service timing record: the engine's record
// (sweep.Metrics) with the service's Index, QueueWait and Total, plus the
// submitting tenant and the admission stage. Exported via WriteMetricsCSV;
// cmd/appfit-load dumps these behind -csv.
type Metrics struct {
	// Tenant is the submitting tenant's name.
	Tenant string `json:"tenant"`
	// Index is the request's position in its submitted batch, QueueWait
	// is admission → DRR dispatch to a service worker, and Total is Submit
	// entry → response; the other stages are the engine's.
	sweep.Metrics
	// AdmissionWait is Submit entry → admission passed (queue + bucket
	// checks).
	AdmissionWait time.Duration `json:"admission_wait_ns"`
}

// MetricsHeader is the CSV column contract of WriteMetricsCSV, identity
// columns first; the golden-header test locks it so the shape cannot
// drift silently under consumers of appfit-load -csv output.
var MetricsHeader = []string{"tenant", "index", "name", "key",
	"admission_wait_ns", "queue_wait_ns", "cache_lookup_ns", "sim_ns",
	"total_ns", "cache_hit", "coalesced"}

// WriteMetricsCSV exports tenant-labeled service metrics as CSV, one row
// per request in the order given: the engine's row, led by the tenant and
// with the admission stage after the identity columns.
func WriteMetricsCSV(w io.Writer, ms []Metrics) error {
	rows := make([][]string, len(ms))
	for i, m := range ms {
		row := m.CSVRow()
		rows[i] = slices.Concat([]string{m.Tenant}, row[:3],
			[]string{strconv.FormatInt(m.AdmissionWait.Nanoseconds(), 10)}, row[3:])
	}
	return trace.WriteRows(w, MetricsHeader, rows)
}
