package main

import (
	"math"
	"testing"
)

func TestCheckRate(t *testing.T) {
	for _, ok := range []float64{0, 1e-3, 0.5, math.Nextafter(1, 0)} {
		if err := checkRate(ok); err != nil {
			t.Errorf("rate %g rejected: %v", ok, err)
		}
	}
	for _, bad := range []float64{math.NaN(), 1, 2, -1e-9, math.Inf(1), math.Inf(-1)} {
		if checkRate(bad) == nil {
			t.Errorf("rate %g accepted", bad)
		}
	}
}
