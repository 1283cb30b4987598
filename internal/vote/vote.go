// Package vote implements the output comparison and majority-vote machinery
// of the replication design (paper §III, Figure 2): the outputs of a task
// and its replica are compared at their synchronization point; inequality
// signals an SDC; after a third execution, "all three results are compared
// and the majority vote is selected as the task's result". Recovery is the
// rule that turns those comparisons into adopt, re-execute or give up, for
// the runtime and the simulator alike.
//
// The comparator is pluggable, as the paper notes ("other comparators such
// as residue error checkers can easily be deployed in the runtime"): Bitwise
// compares full contents, Checksum compares 64-bit fingerprints (cheaper,
// with a 2^-64 aliasing risk), mirroring the residue-checker trade-off.
package vote

import (
	"errors"

	"appfit/internal/buffer"
)

// Comparator decides whether two result sets (the output buffers of two
// executions of the same task) agree.
type Comparator interface {
	// Name identifies the comparator in traces and stats.
	Name() string
	// Equal reports agreement of two same-shape output sets.
	Equal(a, b []buffer.Buffer) bool
}

// Bitwise is the paper's default comparator: full bitwise equality of every
// output argument.
type Bitwise struct{}

// Name implements Comparator.
func (Bitwise) Name() string { return "bitwise" }

// Equal implements Comparator.
func (Bitwise) Equal(a, b []buffer.Buffer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].EqualTo(b[i]) {
			return false
		}
	}
	return true
}

// Checksum compares 64-bit FNV fingerprints of the outputs. It reads both
// sets fully but avoids element-wise short-circuit divergence costs and
// models residue-style checkers.
type Checksum struct{}

// Name implements Comparator.
func (Checksum) Name() string { return "checksum" }

// Equal implements Comparator.
func (Checksum) Equal(a, b []buffer.Buffer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Checksum() != b[i].Checksum() {
			return false
		}
	}
	return true
}

// ErrNoMajority is returned when all three results disagree pairwise: the
// triple-execution produced three distinct outputs and recovery failed.
type ErrNoMajority struct{}

func (ErrNoMajority) Error() string { return "vote: no majority among three results" }

// IsNoMajority reports whether err is a no-majority failure.
func IsNoMajority(err error) bool {
	var e ErrNoMajority
	return errors.As(err, &e)
}

// Majority2of3 returns the index (0, 1 or 2) of a result that at least two
// of the three result sets agree on, using cmp. The returned index is the
// first member of the agreeing pair, so callers can adopt that result set.
func Majority2of3(cmp Comparator, r0, r1, r2 []buffer.Buffer) (int, error) {
	switch {
	case cmp.Equal(r0, r1):
		return 0, nil
	case cmp.Equal(r0, r2):
		return 0, nil
	case cmp.Equal(r1, r2):
		return 1, nil
	default:
		return -1, ErrNoMajority{}
	}
}

// Panel runs n independent comparator passes (the paper's "multiple voters",
// §IV-A: voters are assumed safe because their footprint is small, but
// reliability can be increased by using multiple voters). A Panel of n agrees
// only if every pass agrees; with a deterministic comparator the passes are
// identical, so Panel models the redundancy cost, which the overhead
// experiments account for.
type Panel struct {
	Cmp Comparator
	N   int
}

// Name implements Comparator.
func (p Panel) Name() string { return p.Cmp.Name() + "-panel" }

// Equal implements Comparator.
func (p Panel) Equal(a, b []buffer.Buffer) bool {
	n := p.N
	if n < 1 {
		n = 1
	}
	agree := true
	for i := 0; i < n; i++ {
		if !p.Cmp.Equal(a, b) {
			agree = false
		}
	}
	return agree
}
