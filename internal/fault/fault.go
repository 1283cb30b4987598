// Package fault models the error processes of the paper's failure model
// (§II-A): silent data corruptions (SDCs) and detected-uncorrected errors
// (DUEs, i.e. crashes). The paper estimates rates from neutron-beam data; we
// have no beam, so we inject faults at those estimated rates, exercising the
// exact detection and recovery code paths (compare → re-execute → vote for
// SDC; replica survival / checkpoint re-execution for DUE).
//
// Injection is deterministic: the outcome of attempt k of task t under seed s
// is a pure function of (s, t, k). This makes every experiment replayable and
// makes the outcome independent of scheduling order, which a real runtime
// cannot guarantee but a reproducible evaluation needs.
package fault

import (
	"fmt"
	"sync/atomic"

	"appfit/internal/xrand"
)

// Outcome is the result of one fault draw for one execution attempt.
type Outcome int

const (
	// None means the attempt executes correctly.
	None Outcome = iota
	// SDC means the attempt completes but one bit of one output argument is
	// silently flipped (paper §II-A third class).
	SDC
	// DUE means the attempt crashes: the hardware detected an error it
	// could not correct and the task dies without producing output
	// (paper §II-A second class).
	DUE
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case None:
		return "none"
	case SDC:
		return "SDC"
	case DUE:
		return "DUE"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Injector decides the fault outcome of one execution attempt of a task.
// Attempt numbers distinguish the primary (0), the replica (1) and
// re-executions (≥2); each attempt is an independent exposure.
type Injector interface {
	// Draw returns the outcome for the given execution attempt. pDUE and
	// pSDC are the per-execution failure probabilities estimated by the
	// caller for this task.
	Draw(taskID uint64, attempt int, pDUE, pSDC float64) Outcome
	// BitIndex picks which bit (of bitLen total output bits) an SDC flips,
	// deterministically for the given attempt.
	BitIndex(taskID uint64, attempt int, bitLen int64) int64
}

// Counter tallies injected outcomes; embed or use alongside an Injector.
type Counter struct {
	none, sdc, due atomic.Uint64
}

func (c *Counter) record(o Outcome) {
	switch o {
	case SDC:
		c.sdc.Add(1)
	case DUE:
		c.due.Add(1)
	default:
		c.none.Add(1)
	}
}

// Counts returns (none, sdc, due) totals since construction.
func (c *Counter) Counts() (none, sdc, due uint64) {
	return c.none.Load(), c.sdc.Load(), c.due.Load()
}

// NoFaults is an Injector that never injects. It is the fault-free baseline
// used by the overhead experiments (Figure 4).
type NoFaults struct{ Counter }

// Draw implements Injector.
func (n *NoFaults) Draw(taskID uint64, attempt int, pDUE, pSDC float64) Outcome {
	n.record(None)
	return None
}

// BitIndex implements Injector.
func (n *NoFaults) BitIndex(taskID uint64, attempt int, bitLen int64) int64 { return 0 }

// Seeded injects faults with the probabilities supplied by the caller,
// drawing deterministically from (seed, taskID, attempt).
type Seeded struct {
	Counter
	seed uint64
	// Boost multiplies both probabilities; experiments use it to make rare
	// events observable without changing the model. 0 means 1.
	Boost float64
}

// NewSeeded returns a Seeded injector with the given experiment seed.
func NewSeeded(seed uint64) *Seeded { return &Seeded{seed: seed} }

func (s *Seeded) stream(taskID uint64, attempt int, salt uint64) *xrand.Rand {
	return xrand.New(xrand.Combine(s.seed, taskID, uint64(attempt), salt))
}

// Draw implements Injector. DUE is drawn before SDC; a crashed attempt
// produces no output, so the two outcomes are mutually exclusive.
func (s *Seeded) Draw(taskID uint64, attempt int, pDUE, pSDC float64) Outcome {
	boost := s.Boost
	if boost == 0 {
		boost = 1
	}
	r := s.stream(taskID, attempt, 0x5EEDFA17)
	u := r.Float64()
	pd, ps := pDUE*boost, pSDC*boost
	var o Outcome
	switch {
	case u < pd:
		o = DUE
	case u < pd+ps:
		o = SDC
	default:
		o = None
	}
	s.record(o)
	return o
}

// BitIndex implements Injector.
func (s *Seeded) BitIndex(taskID uint64, attempt int, bitLen int64) int64 {
	if bitLen <= 0 {
		return 0
	}
	return s.stream(taskID, attempt, 0xB17F11B).Int63n(bitLen)
}

// FixedRate injects with constant per-attempt probabilities regardless of
// what the caller estimated. This models the paper's scalability experiments
// ("per task fixed fault rates", §V-A2).
type FixedRate struct {
	Counter
	seed       uint64
	pDUE, pSDC float64
}

// NewFixedRate returns an injector with constant per-execution probabilities.
func NewFixedRate(seed uint64, pDUE, pSDC float64) *FixedRate {
	return &FixedRate{seed: seed, pDUE: pDUE, pSDC: pSDC}
}

// Draw implements Injector, ignoring the caller's estimates.
func (f *FixedRate) Draw(taskID uint64, attempt int, _, _ float64) Outcome {
	var r xrand.Rand
	r.Seed(xrand.Combine(f.seed, taskID, uint64(attempt), 0xF17ED))
	u := r.Float64()
	var o Outcome
	switch {
	case u < f.pDUE:
		o = DUE
	case u < f.pDUE+f.pSDC:
		o = SDC
	default:
		o = None
	}
	f.record(o)
	return o
}

// BitIndex implements Injector.
func (f *FixedRate) BitIndex(taskID uint64, attempt int, bitLen int64) int64 {
	if bitLen <= 0 {
		return 0
	}
	var r xrand.Rand
	r.Seed(xrand.Combine(f.seed, taskID, uint64(attempt), 0xB17))
	return r.Int63n(bitLen)
}

// Script injects a pre-programmed outcome for specific (taskID, attempt)
// pairs and None otherwise. Tests use it to drive every recovery path
// deterministically (e.g. "SDC in the replica of task 12, then a clean
// re-execution").
type Script struct {
	Counter
	outcomes map[[2]uint64]Outcome
	bits     map[[2]uint64]int64
}

// NewScript returns an empty script.
func NewScript() *Script {
	return &Script{outcomes: map[[2]uint64]Outcome{}, bits: map[[2]uint64]int64{}}
}

// Set programs the outcome for attempt of taskID.
func (s *Script) Set(taskID uint64, attempt int, o Outcome) *Script {
	s.outcomes[[2]uint64{taskID, uint64(attempt)}] = o
	return s
}

// SetBit programs which bit an SDC at (taskID, attempt) flips.
func (s *Script) SetBit(taskID uint64, attempt int, bit int64) *Script {
	s.bits[[2]uint64{taskID, uint64(attempt)}] = bit
	return s
}

// Draw implements Injector.
func (s *Script) Draw(taskID uint64, attempt int, _, _ float64) Outcome {
	o := s.outcomes[[2]uint64{taskID, uint64(attempt)}]
	s.record(o)
	return o
}

// BitIndex implements Injector.
func (s *Script) BitIndex(taskID uint64, attempt int, bitLen int64) int64 {
	if b, ok := s.bits[[2]uint64{taskID, uint64(attempt)}]; ok && b < bitLen {
		return b
	}
	return 0
}
