package fit

import (
	"bufio"
	"errors"
	"math"
	"strings"
	"testing"

	"appfit/internal/xrand"
)

func TestFromLogRecoverRoadrunner(t *testing.T) {
	// A synthetic log generated at exactly the Roadrunner rates must be
	// estimated back: 2.22e3 FIT/32GB = 2.22e-6 crashes per 32GB-hour, so
	// 1e9 32GB-hours of exposure yields 2220 crashes in expectation.
	entries := []LogEntry{{
		FootprintBytes: 32_000_000_000,
		Hours:          1e9,
		DUEs:           2220,
		SDCs:           1110,
	}}
	r, err := FromLog(entries)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.DUEPer32GB-2220) > 1e-9 || math.Abs(r.SDCPer32GB-1110) > 1e-9 {
		t.Fatalf("estimated %+v", r)
	}
}

func TestFromLogPoolsExposure(t *testing.T) {
	// Two half-size, half-duration observations must pool to the same
	// estimate as one combined observation.
	one, err := FromLog([]LogEntry{{FootprintBytes: 64_000_000_000, Hours: 100, DUEs: 8, SDCs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := FromLog([]LogEntry{
		{FootprintBytes: 64_000_000_000, Hours: 50, DUEs: 5, SDCs: 1},
		{FootprintBytes: 64_000_000_000, Hours: 50, DUEs: 3, SDCs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.DUEPer32GB-two.DUEPer32GB) > 1e-9 || math.Abs(one.SDCPer32GB-two.SDCPer32GB) > 1e-9 {
		t.Fatalf("pooling broken: %+v vs %+v", one, two)
	}
}

func TestFromLogErrors(t *testing.T) {
	if _, err := FromLog(nil); err == nil {
		t.Fatal("empty log must error")
	}
	if _, err := FromLog([]LogEntry{{FootprintBytes: -1, Hours: 1}}); err == nil {
		t.Fatal("negative footprint must error")
	}
	if _, err := FromLog([]LogEntry{{FootprintBytes: 1, Hours: 0}}); err == nil {
		t.Fatal("zero exposure must error")
	}
}

func TestFromLogStatisticalConsistency(t *testing.T) {
	// Generate Poisson-ish events at a known rate; the estimator must
	// recover it within sampling error.
	rng := xrand.New(31)
	trueRates := Rates{DUEPer32GB: 5e3, SDCPer32GB: 2e3}
	var entries []LogEntry
	const periods = 400
	for i := 0; i < periods; i++ {
		exposure := 1e6 // 32GB-hours per period
		lamD := trueRates.DUEPer32GB / HoursPerBillion * exposure
		lamS := trueRates.SDCPer32GB / HoursPerBillion * exposure
		// Poisson via thinning of a generous binomial.
		draw := func(lam float64) int64 {
			n := int64(0)
			for k := 0; k < 100; k++ {
				if rng.Float64() < lam/100 {
					n++
				}
			}
			return n
		}
		entries = append(entries, LogEntry{
			FootprintBytes: 32_000_000_000,
			Hours:          exposure,
			DUEs:           draw(lamD),
			SDCs:           draw(lamS),
		})
	}
	got, err := FromLog(entries)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.DUEPer32GB-trueRates.DUEPer32GB) > 0.1*trueRates.DUEPer32GB {
		t.Fatalf("DUE estimate %g vs true %g", got.DUEPer32GB, trueRates.DUEPer32GB)
	}
	if math.Abs(got.SDCPer32GB-trueRates.SDCPer32GB) > 0.15*trueRates.SDCPer32GB {
		t.Fatalf("SDC estimate %g vs true %g", got.SDCPer32GB, trueRates.SDCPer32GB)
	}
}

func TestParseLog(t *testing.T) {
	in := `
# footprint hours dues sdcs
32000000000 1000000000 2220 1110

64000000000 10 1 0
`
	entries, err := ParseLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("parsed %d entries", len(entries))
	}
	if entries[1].FootprintBytes != 64_000_000_000 || entries[1].DUEs != 1 {
		t.Fatalf("entry %+v", entries[1])
	}
	r, err := FromLog(entries)
	if err != nil {
		t.Fatal(err)
	}
	if r.DUEPer32GB < 2000 {
		t.Fatalf("rates %+v", r)
	}
}

func TestParseLogErrors(t *testing.T) {
	for _, bad := range []string{
		"1 2 3",   // wrong field count
		"x 2 3 4", // bad footprint
		"1 y 3 4", // bad hours
		"1 2 z 4", // bad dues
		"1 2 3 w", // bad sdcs
	} {
		if _, err := ParseLog(strings.NewReader(bad)); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

// TestLogRejectsNonFinite: a log whose hours are not finite, or whose rates
// would come out non-finite, is rejected with ErrLog rather than handed to
// the estimator.
func TestLogRejectsNonFinite(t *testing.T) {
	for _, log := range []string{
		"1000 NaN 1 1",
		"1000 Inf 1 1",
		"1000 +Inf 0 0",
		"1000 -Inf 1 1",
		"1 1e-300 1 1",
	} {
		r, err := parseRates(log)
		if !errors.Is(err, ErrLog) {
			t.Errorf("%q: rates %+v, error %v; want ErrLog", log, r, err)
		}
	}
	if _, err := FromLog([]LogEntry{{FootprintBytes: 1000, Hours: math.Inf(1), DUEs: 1}}); !errors.Is(err, ErrLog) {
		t.Errorf("infinite hours entry: error %v, want ErrLog", err)
	}
}

// parseRates is ParseLog then FromLog, as cmd/appfit -rates-log reads a log.
func parseRates(log string) (Rates, error) {
	entries, err := ParseLog(strings.NewReader(log))
	if err != nil {
		return Rates{}, err
	}
	return FromLog(entries)
}

// FuzzFitFromLog: whatever the log text, parsing and estimating never
// panics, every rejection is a named error (ErrLog, or bufio.ErrTooLong for
// a line the scanner cannot hold), and every accepted log gives finite,
// non-negative rates.
func FuzzFitFromLog(f *testing.F) {
	for _, seed := range []string{
		"32000000000 1000000000 2220 1110\n\n# comment\n64000000000 10 1 0\n",
		"1000 NaN 1 1", "1 1e-300 1 1", "1 2 3", "-1 2 3 4", "1 0x1p-1074 9223372036854775807 0",
		"", "1 1e308 1 1\n9223372036854775807 1e308 0 0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, log string) {
		r, err := parseRates(log)
		if err != nil {
			if !errors.Is(err, ErrLog) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("%q: unnamed error %v", log, err)
			}
			return
		}
		for _, x := range []float64{r.DUEPer32GB, r.SDCPer32GB} {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Fatalf("%q: accepted with rates %+v", log, r)
			}
		}
	})
}
