package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Add(Record{TaskID: 1})
	if tr.Len() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestRecordsSortedByID(t *testing.T) {
	tr := New()
	tr.Add(Record{TaskID: 3})
	tr.Add(Record{TaskID: 1})
	tr.Add(Record{TaskID: 2})
	recs := tr.Records()
	if len(recs) != 3 || recs[0].TaskID != 1 || recs[2].TaskID != 3 {
		t.Fatalf("records %v", recs)
	}
	if tr.Len() != 3 {
		t.Fatalf("len %d", tr.Len())
	}
}

func TestConcurrentAdd(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			tr.Add(Record{TaskID: id})
		}(uint64(i + 1))
	}
	wg.Wait()
	if tr.Len() != 100 {
		t.Fatalf("len %d", tr.Len())
	}
}

func TestEventStrings(t *testing.T) {
	events := []Event{Checkpointed, ReplicaCreated, Compared, SDCDetected,
		Restored, Reexecuted, Voted, DUERecovered, UnprotectedSDC,
		UnprotectedDUE, VoteFailed}
	seen := map[string]bool{}
	for _, e := range events {
		s := e.String()
		if s == "" || seen[s] {
			t.Fatalf("bad/duplicate event string %q", s)
		}
		seen[s] = true
	}
	if Event(99).String() == "" {
		t.Fatal("unknown event must stringify")
	}
}

func TestWriteTimeline(t *testing.T) {
	tr := New()
	tr.Add(Record{TaskID: 1, Label: "quiet"})
	tr.Add(Record{TaskID: 2, Label: "noisy", Replicated: true,
		Events: []Event{Checkpointed, SDCDetected, Voted}})
	var sb strings.Builder
	tr.WriteTimeline(&sb)
	out := sb.String()
	if strings.Contains(out, "quiet") {
		t.Fatal("event-free records must be omitted")
	}
	if !strings.Contains(out, "noisy") || !strings.Contains(out, "sdc_detected") {
		t.Fatalf("timeline missing content:\n%s", out)
	}
}
