// Package vote implements the output comparison and majority-vote machinery
// of the replication design (paper §III, Figure 2): the outputs of a task
// and its replica are compared at their synchronization point; inequality
// signals an SDC; after a third execution, "all three results are compared
// and the majority vote is selected as the task's result". Recovery is the
// rule that turns those comparisons into adopt, re-execute or give up, for
// the runtime and the simulator alike.
//
// The comparison is the paper's: Bitwise, full bitwise equality of every
// output argument. The runtime calls it directly; Comparator is the shape
// Majority2of3 takes a comparison in.
package vote

import (
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

// ErrNoMajority is returned when all three results disagree pairwise: the
// triple-execution produced three distinct outputs and recovery failed.
type ErrNoMajority struct{}

func (ErrNoMajority) Error() string { return "vote: no majority among three results" }

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
