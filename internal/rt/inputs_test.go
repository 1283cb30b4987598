package rt

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/deps"
	"appfit/internal/fault"
	"appfit/internal/vote"
	"appfit/internal/xrand"
)

// inputDAG is a random program: regions of mixed element types, and tasks
// each declaring one to three of them with random modes, at least one
// written. Faults scripts each task's fault case by task id.
type inputDAG struct {
	regions []buffer.Buffer // initial contents; each run starts on clones
	tasks   [][]inputArg
	faults  *fault.Script
	// failing are the task ids scripted to exhaust the vote: their outputs
	// are never adopted, so the serial replay skips their writes.
	failing map[uint64]bool
	reexecs int // re-executions the script asks for, vote failures aside
}

type inputArg struct {
	region int
	mode   deps.Mode
}

// The fault cases, one per task: clean, an SDC in the primary, an SDC in the
// replica, a DUE in either first attempt, a vote failure (a different bit
// flipped in every attempt), and repeated re-executions (an SDC in the
// primary and in the first re-execution, a DUE in the second).
const (
	caseClean = iota
	caseSDCPrimary
	caseSDCReplica
	caseDUE
	caseVoteFailure
	caseRepeated
	nCases
)

func newInputDAG(seed uint64) inputDAG {
	rng := xrand.New(seed)
	d := inputDAG{faults: fault.NewScript(), failing: map[uint64]bool{}}
	for k := 3 + rng.Intn(4); k > 0; k-- {
		n := 1 + rng.Intn(8)
		if rng.Intn(2) == 0 {
			b := buffer.NewF64(n)
			for j := range b {
				b[j] = rng.NormFloat64()
			}
			d.regions = append(d.regions, b)
		} else {
			b := buffer.NewU8(n)
			for j := range b {
				b[j] = byte(rng.Intn(256))
			}
			d.regions = append(d.regions, b)
		}
	}
	modes := []deps.Mode{deps.In, deps.Out, deps.Inout}
	for i := 8 + rng.Intn(25); i > 0; i-- {
		var args []inputArg
		writes := false
		for _, region := range rng.Perm(len(d.regions))[:1+rng.Intn(3)] {
			a := inputArg{region: region, mode: modes[rng.Intn(len(modes))]}
			writes = writes || a.mode.Writes()
			args = append(args, a)
		}
		if !writes {
			args[0].mode = deps.Inout
		}
		d.tasks = append(d.tasks, args)
		// Every writable set has at least 8 bits, so bits below 8 all land.
		id := uint64(len(d.tasks))
		switch rng.Intn(nCases) {
		case caseSDCPrimary:
			d.faults.Set(id, 0, fault.SDC).SetBit(id, 0, int64(rng.Intn(8)))
			d.reexecs++
		case caseSDCReplica:
			d.faults.Set(id, 1, fault.SDC).SetBit(id, 1, int64(rng.Intn(8)))
			d.reexecs++
		case caseDUE:
			d.faults.Set(id, rng.Intn(2), fault.DUE)
			d.reexecs++
		case caseVoteFailure:
			for att := 0; att < vote.MaxAttempts; att++ {
				d.faults.Set(id, att, fault.SDC).SetBit(id, att, int64(att))
			}
			d.failing[id] = true
		case caseRepeated:
			d.faults.Set(id, 0, fault.SDC).SetBit(id, 0, 1).
				Set(id, 2, fault.SDC).SetBit(id, 2, 2).
				Set(id, 3, fault.DUE)
			d.reexecs += 3
		}
	}
	return d
}

// inputDigest hashes every argument a body sees, in order (FNV-1a over
// each element's bits).
func inputDigest(ctx *Ctx) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for i := 0; i < ctx.NArgs(); i++ {
		switch b := ctx.Buf(i).(type) {
		case buffer.F64:
			for _, x := range b {
				mix(math.Float64bits(x))
			}
		case buffer.U8:
			for _, x := range b {
				mix(uint64(x))
			}
		}
		mix(uint64(i) << 32)
	}
	return h
}

// run executes d on fresh clones of its regions and returns them with the
// input digest each (task id, attempt) saw. replicated runs every task
// replicated under d's script on three workers; otherwise it is the serial
// replay: one worker, no faults, and the vote-failing tasks' writes skipped.
func (d inputDAG) run(replicated bool) ([]buffer.Buffer, map[[2]uint64]uint64, Stats, error) {
	regions := make([]buffer.Buffer, len(d.regions))
	for k, b := range d.regions {
		regions[k] = b.Clone()
	}
	var mu sync.Mutex
	seen := map[[2]uint64]uint64{}
	cfg := Config{Workers: 1}
	if replicated {
		cfg = Config{Workers: 3, Selector: core.ReplicateAll{}, Injector: d.faults}
	}
	r := New(cfg)
	for _, spec := range d.tasks {
		args := make([]Arg, len(spec))
		for a, s := range spec {
			args[a] = Arg{Key: fmt.Sprint("r", s.region), Mode: s.mode, Buf: regions[s.region]}
		}
		r.Submit("t", func(ctx *Ctx) {
			h := inputDigest(ctx)
			mu.Lock()
			seen[[2]uint64{ctx.t.id, uint64(ctx.attempt)}] = h
			mu.Unlock()
			if !replicated && d.failing[ctx.t.id] {
				return
			}
			// Outputs depend on every input and differ per argument and
			// element.
			for a, s := range spec {
				if !s.mode.Writes() {
					continue
				}
				switch b := ctx.Buf(a).(type) {
				case buffer.F64:
					for j := range b {
						b[j] = float64(xrand.Combine(h, uint64(a), uint64(j))>>11) / (1 << 53)
					}
				case buffer.U8:
					for j := range b {
						b[j] = byte(xrand.Combine(h, uint64(a), uint64(j)))
					}
				}
			}
		}, args...)
	}
	err := r.Shutdown()
	return regions, seen, r.Stats(), err
}

// TestEveryAttemptSeesTheSameInputs: a replicated task's checkpoint must
// give every attempt the inputs the task would see in a serial run. For
// random DAGs under scripted faults — an SDC in the primary or the replica,
// a DUE, a vote failure, repeated re-executions — each body digests all its
// arguments; every attempt of a task, re-executions included, must see
// bitwise what that task saw in a serial replay, and the final regions must
// match the replay's.
func TestEveryAttemptSeesTheSameInputs(t *testing.T) {
	var reexecs uint64
	prop := func(seed uint64) bool {
		d := newInputDAG(seed)
		want, serial, _, err := d.run(false)
		if err != nil {
			t.Errorf("seed %d: serial replay: %v", seed, err)
			return false
		}
		got, seen, st, err := d.run(true)
		if len(d.failing) > 0 {
			if !errors.As(err, new(vote.ErrNoMajority)) {
				t.Errorf("seed %d: Shutdown = %v, want a no-majority error", seed, err)
				return false
			}
		} else if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if least := uint64(d.reexecs); st.Reexecutions < least {
			t.Errorf("seed %d: %d re-executions, the script asks for at least %d", seed, st.Reexecutions, least)
			return false
		}
		reexecs += st.Reexecutions
		// Task ids count up in submission order, so the first mismatch
		// reported is the earliest.
		for id := uint64(1); id <= uint64(len(d.tasks)); id++ {
			want, ran := serial[[2]uint64{id, 0}], 0
			for att := uint64(0); att < vote.MaxAttempts; att++ {
				h, ok := seen[[2]uint64{id, att}]
				if !ok {
					continue
				}
				ran++
				if h != want {
					t.Errorf("seed %d: task %d attempt %d saw inputs %#x, the serial replay %#x", seed, id, att, h, want)
					return false
				}
			}
			if ran == 0 {
				t.Errorf("seed %d: no attempt of task %d ran its body", seed, id)
				return false
			}
		}
		for k := range want {
			if !got[k].EqualTo(want[k]) {
				t.Errorf("seed %d: region %d = %v, the serial replay's %v", seed, k, got[k], want[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if reexecs == 0 {
		t.Fatal("no task re-executed — the test is vacuous")
	}
}
