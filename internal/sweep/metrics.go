package sweep

import (
	"io"
	"strconv"

	"appfit/internal/trace"
)

// WriteMetricsCSV exports per-request pipeline timings as CSV, one row per
// request in batch order: the flat-struct export the experiment drivers
// attach behind a -csv flag (same shape as trace.WriteCSV's per-task rows —
// identity columns first, then one column per pipeline stage).
func WriteMetricsCSV(w io.Writer, ms []Metrics) error {
	header := []string{"index", "name", "key", "queue_wait_ns", "cache_lookup_ns",
		"sim_ns", "total_ns", "cache_hit", "coalesced"}
	rows := make([][]string, len(ms))
	for i, m := range ms {
		rows[i] = m.CSVRow()
	}
	return trace.WriteRows(w, header, rows)
}

// CSVRow encodes m as WriteMetricsCSV's columns: the one row encoder, which
// serve.WriteMetricsCSV extends with the service's own columns.
func (m Metrics) CSVRow() []string {
	return []string{
		strconv.Itoa(m.Index),
		m.Name,
		m.Key,
		strconv.FormatInt(m.QueueWait.Nanoseconds(), 10),
		strconv.FormatInt(m.CacheLookup.Nanoseconds(), 10),
		strconv.FormatInt(m.Sim.Nanoseconds(), 10),
		strconv.FormatInt(m.Total.Nanoseconds(), 10),
		strconv.FormatBool(m.CacheHit),
		strconv.FormatBool(m.Coalesced),
	}
}

// BatchMetrics collects the Metrics column of a batch's responses.
func BatchMetrics(resps []Response) []Metrics {
	ms := make([]Metrics, len(resps))
	for i, r := range resps {
		ms[i] = r.Metrics
	}
	return ms
}
