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

// NoFaults is an Injector that never injects. It is the fault-free baseline
// used by the overhead experiments (Figure 4).
type NoFaults struct{}

// Draw implements Injector.
func (n *NoFaults) Draw(taskID uint64, attempt int, pDUE, pSDC float64) Outcome { return None }

// BitIndex implements Injector.
func (n *NoFaults) BitIndex(taskID uint64, attempt int, bitLen int64) int64 { return 0 }

// streams are one experiment's per-attempt random streams. The stream of
// (task, attempt, salt) is xrand.New(xrand.Combine(seed, task, attempt,
// salt)), and a draw reads only its first output.
type streams struct {
	seed uint64
	base uint64 // xrand.Combine(seed), hashed once at construction
}

func newStreams(seed uint64) streams { return streams{seed, xrand.Combine(seed)} }

// uniform returns the first output of the (task, attempt, salt) stream in
// closed form: three Mix64 steps continue the Combine and one more is
// xrand.First, four finalizers where seeding a generator took eight.
func (s *streams) uniform(task uint64, attempt int, salt uint64) uint64 {
	h := xrand.Mix64(s.base ^ task)
	h = xrand.Mix64(h ^ uint64(attempt))
	return xrand.First(xrand.Mix64(h ^ salt))
}

// outcome turns a uniform draw into an Outcome. DUE is drawn before SDC; a
// crashed attempt produces no output, so the two are mutually exclusive.
func outcome(u, pDUE, pSDC float64) Outcome {
	switch {
	case u < pDUE:
		return DUE
	case u < pDUE+pSDC:
		return SDC
	default:
		return None
	}
}

// bitIndex picks one of bitLen bits from a uniform draw.
func bitIndex(x uint64, bitLen int64) int64 {
	if bitLen <= 0 {
		return 0
	}
	return int64(x % uint64(bitLen))
}

// Seeded injects faults with the probabilities supplied by the caller,
// drawing deterministically from (seed, taskID, attempt). Construct it with
// NewSeeded.
type Seeded struct {
	streams
	// Boost multiplies both probabilities; experiments use it to make rare
	// events observable without changing the model. 0 means 1.
	Boost float64
}

// NewSeeded returns a Seeded injector with the given experiment seed.
func NewSeeded(seed uint64) *Seeded { return &Seeded{streams: newStreams(seed)} }

// Draw implements Injector.
func (s *Seeded) Draw(taskID uint64, attempt int, pDUE, pSDC float64) Outcome {
	boost := s.Boost
	if boost == 0 {
		boost = 1
	}
	pd, ps := pDUE*boost, pSDC*boost
	if pd == 0 && ps == 0 {
		return None
	}
	return outcome(xrand.Unit(s.uniform(taskID, attempt, 0x5EEDFA17)), pd, ps)
}

// BitIndex implements Injector.
func (s *Seeded) BitIndex(taskID uint64, attempt int, bitLen int64) int64 {
	return bitIndex(s.uniform(taskID, attempt, 0xB17F11B), bitLen)
}

// FixedRate injects with constant per-attempt probabilities regardless of
// what the caller estimated. This models the paper's scalability experiments
// ("per task fixed fault rates", §V-A2). Construct it with NewFixedRate.
type FixedRate struct {
	streams
	pDUE, pSDC float64
}

// NewFixedRate returns an injector with constant per-execution probabilities.
func NewFixedRate(seed uint64, pDUE, pSDC float64) *FixedRate {
	return &FixedRate{streams: newStreams(seed), pDUE: pDUE, pSDC: pSDC}
}

// Draw implements Injector, ignoring the caller's estimates.
func (f *FixedRate) Draw(taskID uint64, attempt int, _, _ float64) Outcome {
	if f.pDUE == 0 && f.pSDC == 0 {
		return None
	}
	return outcome(xrand.Unit(f.uniform(taskID, attempt, 0xF17ED)), f.pDUE, f.pSDC)
}

// BitIndex implements Injector.
func (f *FixedRate) BitIndex(taskID uint64, attempt int, bitLen int64) int64 {
	return bitIndex(f.uniform(taskID, attempt, 0xB17), bitLen)
}

// Script injects a pre-programmed outcome for specific (taskID, attempt)
// pairs and None otherwise. Tests use it to drive every recovery path
// deterministically (e.g. "SDC in the replica of task 12, then a clean
// re-execution").
type Script struct {
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
	return s.outcomes[[2]uint64{taskID, uint64(attempt)}]
}

// BitIndex implements Injector.
func (s *Script) BitIndex(taskID uint64, attempt int, bitLen int64) int64 {
	if b, ok := s.bits[[2]uint64{taskID, uint64(attempt)}]; ok && b < bitLen {
		return b
	}
	return 0
}
