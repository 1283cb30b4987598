package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		rateScale, threshold, p float64
		ok                      bool
	}{
		{10, 0, 0.5, true}, // the defaults; threshold 0 is the 1× application FIT
		{0, 3.5, 0, true},
		{1, 1e6, 1, true},
		{-1, 0, 0.5, false},
		{nan, 0, 0.5, false},
		{inf, 0, 0.5, false},
		{10, -5, 0.5, false},
		{10, nan, 0.5, false},
		{10, inf, 0.5, false},
		{10, 0, -0.1, false},
		{10, 0, 1.5, false},
		{10, 0, nan, false},
	} {
		if err := checkFlags(c.rateScale, c.threshold, c.p); (err == nil) != c.ok {
			t.Errorf("checkFlags(%g, %g, %g) = %v, want ok=%v", c.rateScale, c.threshold, c.p, err, c.ok)
		}
	}
}
