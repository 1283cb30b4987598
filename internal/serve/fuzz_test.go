package serve

import (
	"errors"
	"math"
	"testing"
)

// FuzzParseTenants drives the daemons' -tenants parser with arbitrary
// strings: it must never panic, every rejection must wrap ErrTenantSpec,
// and every accepted config must normalize to a usable tenant — weight
// ≥ 1, a finite rate ≥ 0, burst ≥ 1 and queue cap ≥ 1.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"heavy=3,light=1",
		"alpha=3/100,beta=1/10/20/256",
		"a=1/1e300",
		"a=1/+Inf",
		"a=1/NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tcs, err := ParseTenants(spec)
		if err != nil {
			if !errors.Is(err, ErrTenantSpec) {
				t.Fatalf("ParseTenants(%q): error %v does not wrap ErrTenantSpec", spec, err)
			}
			return
		}
		for _, tc := range tcs {
			n, err := tc.normalized()
			if err != nil {
				t.Fatalf("ParseTenants(%q) accepted %+v, which does not normalize: %v", spec, tc, err)
			}
			if n.Weight < 1 || n.Rate < 0 || math.IsNaN(n.Rate) || math.IsInf(n.Rate, 0) || n.Burst < 1 || n.QueueCap < 1 {
				t.Fatalf("ParseTenants(%q) accepted %+v, normalized to %+v", spec, tc, n)
			}
		}
	})
}
