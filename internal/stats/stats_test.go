package stats

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("a-much-longer-name", 42)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	// Columns must align: both data rows start "name" column at 0 and the
	// value column at the same offset.
	if strings.Index(lines[2], "3.14") < len("a-much-longer-name") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty input")
	}
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 2.5 {
		t.Fatalf("p50 = %v, want 2.5", got)
	}
	// Linear interpolation: p75 of {1,2,3,4} sits 1/4 above rank 2.
	if got := Percentile(xs, 75); got != 3.25 {
		t.Fatalf("p75 = %v, want 3.25", got)
	}
	if xs[0] != 4 {
		t.Fatal("input mutated")
	}
	one := []float64{7}
	for _, p := range []float64{0, 50, 99, 100} {
		if Percentile(one, p) != 7 {
			t.Fatalf("single-element p%v", p)
		}
	}
}
