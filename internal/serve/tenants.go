package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrTenantSpec is the sentinel wrapped by every ParseTenants rejection,
// so drivers can errors.Is a malformed -tenants flag without matching
// message text.
var ErrTenantSpec = errors.New("serve: invalid tenant spec")

// ParseTenants parses the compact tenant spec the daemons take on their
// command line: comma-separated `name=weight[/rate[/burst[/cap]]]` entries,
// e.g.
//
//	heavy=3,light=1                 // weights only
//	alpha=3/100,beta=1/10/20/256    // + rate limit [, burst, queue cap]
//
// Omitted fields keep TenantConfig defaults (rate unlimited, burst from
// rate, queue cap 1024). A bare `name` means weight 1.
func ParseTenants(spec string) ([]TenantConfig, error) {
	var out []TenantConfig
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		tc := TenantConfig{}
		name, rest, hasParams := strings.Cut(entry, "=")
		tc.Name = strings.TrimSpace(name)
		if tc.Name == "" {
			return nil, fmt.Errorf("serve: tenant spec %q: empty name: %w", entry, ErrTenantSpec)
		}
		if seen[tc.Name] {
			return nil, fmt.Errorf("serve: tenant spec: duplicate tenant %q: %w", tc.Name, ErrTenantSpec)
		}
		seen[tc.Name] = true
		if hasParams {
			parts := strings.Split(rest, "/")
			if len(parts) > 4 {
				return nil, fmt.Errorf("serve: tenant spec %q: want name=weight[/rate[/burst[/cap]]]: %w", entry, ErrTenantSpec)
			}
			for i, p := range parts {
				p = strings.TrimSpace(p)
				if p == "" {
					continue
				}
				switch i {
				case 0:
					w, err := strconv.Atoi(p)
					if err != nil || w < 1 {
						return nil, fmt.Errorf("serve: tenant spec %q: bad weight %q: %w", entry, p, ErrTenantSpec)
					}
					tc.Weight = w
				case 1:
					r, err := strconv.ParseFloat(p, 64)
					if err != nil || r < 0 {
						return nil, fmt.Errorf("serve: tenant spec %q: bad rate %q: %w", entry, p, ErrTenantSpec)
					}
					tc.Rate = r
				case 2:
					b, err := strconv.Atoi(p)
					if err != nil || b < 1 {
						return nil, fmt.Errorf("serve: tenant spec %q: bad burst %q: %w", entry, p, ErrTenantSpec)
					}
					tc.Burst = b
				case 3:
					c, err := strconv.Atoi(p)
					if err != nil || c < 1 {
						return nil, fmt.Errorf("serve: tenant spec %q: bad queue cap %q: %w", entry, p, ErrTenantSpec)
					}
					tc.QueueCap = c
				}
			}
		}
		if _, err := tc.normalized(); err != nil {
			return nil, fmt.Errorf("%w: %w", err, ErrTenantSpec)
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: tenant spec %q names no tenants: %w", spec, ErrTenantSpec)
	}
	return out, nil
}
