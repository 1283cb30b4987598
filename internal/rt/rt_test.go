package rt

import (
	"slices"
	"strings"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/fit"
	"appfit/internal/trace"
	"appfit/internal/xrand"
)

// incrTask returns a task body that adds delta to every element of arg 0.
func incrTask(delta float64) TaskFunc {
	return func(ctx *Ctx) {
		a := ctx.F64(0)
		for i := range a {
			a[i] += delta
		}
	}
}

func TestSingleTask(t *testing.T) {
	r := New(Config{Workers: 2})
	a := buffer.F64{1, 2, 3}
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 || a[1] != 3 || a[2] != 4 {
		t.Fatalf("got %v", a)
	}
	st := r.Stats()
	if st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDependencyChainOrder(t *testing.T) {
	// inout chain must serialize: A starts at 0; ×2 then +10 gives 10... no:
	// (0+1)*3+5 with three tasks checks ordering exactly.
	r := New(Config{Workers: 4})
	a := buffer.F64{0}
	r.Submit("add1", func(c *Ctx) { c.F64(0)[0] += 1 }, Inout("A", a))
	r.Submit("mul3", func(c *Ctx) { c.F64(0)[0] *= 3 }, Inout("A", a))
	r.Submit("add5", func(c *Ctx) { c.F64(0)[0] += 5 }, Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 8 {
		t.Fatalf("dependency order violated: got %v, want 8", a[0])
	}
}

func TestFigure1DataflowOverlap(t *testing.T) {
	// Paper Figure 1: A1 → A2 on array A; B independent. Under dataflow B
	// must be able to run while A1/A2 are serialized. We verify B is not
	// ordered after A2 by checking it can complete while A1 blocks.
	r := New(Config{Workers: 2})
	a := buffer.F64{0}
	b := buffer.F64{0}
	a1Blocked := make(chan struct{})
	bDone := make(chan struct{})
	r.Submit("A1", func(c *Ctx) {
		<-bDone // A1 waits until B completed: only possible if B overlaps
		c.F64(0)[0]++
	}, Inout("A", a))
	r.Submit("A2", func(c *Ctx) { c.F64(0)[0]++ }, Inout("A", a))
	r.Submit("B", func(c *Ctx) {
		c.F64(0)[0] = 42
		close(bDone)
	}, Inout("B", b))
	close(a1Blocked)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 || b[0] != 42 {
		t.Fatalf("a=%v b=%v", a[0], b[0])
	}
}

func TestTaskwaitBarrier(t *testing.T) {
	r := New(Config{Workers: 2})
	a := buffer.F64{0}
	for i := 0; i < 10; i++ {
		r.Submit("inc", incrTask(1), Inout("A", a))
	}
	r.Taskwait()
	if a[0] != 10 {
		t.Fatalf("after taskwait a=%v", a[0])
	}
	// Fork-join style: a second phase after the barrier.
	for i := 0; i < 5; i++ {
		r.Submit("inc", incrTask(2), Inout("A", a))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 20 {
		t.Fatalf("after second phase a=%v", a[0])
	}
}

func TestManyIndependentTasks(t *testing.T) {
	r := New(Config{Workers: 4})
	const n = 500
	bufs := make([]buffer.F64, n)
	for i := range bufs {
		bufs[i] = buffer.F64{float64(i)}
		key := "B" + string(rune('0'+i%10)) + "/" + itoa(i)
		r.Submit("sq", func(c *Ctx) {
			b := c.F64(0)
			b[0] = b[0] * b[0]
		}, Inout(key, bufs[i]))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if want := float64(i) * float64(i); bufs[i][0] != want {
			t.Fatalf("task %d: got %v want %v", i, bufs[i][0], want)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestReadersRunConcurrentlyWithWAR(t *testing.T) {
	r := New(Config{Workers: 4})
	src := buffer.F64{7}
	outs := make([]buffer.F64, 8)
	r.Submit("w", func(c *Ctx) { c.F64(0)[0] = 7 }, Out("S", src))
	for i := range outs {
		outs[i] = buffer.F64{0}
		r.Submit("r", func(c *Ctx) { c.F64(1)[0] = c.F64(0)[0] * 2 },
			In("S", src), Out("O"+itoa(i), outs[i]))
	}
	// Writer after all readers (WAR).
	r.Submit("w2", func(c *Ctx) { c.F64(0)[0] = 100 }, Out("S", src))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i][0] != 14 {
			t.Fatalf("reader %d saw %v (WAR violated?)", i, outs[i][0])
		}
	}
	if src[0] != 100 {
		t.Fatalf("final writer lost: %v", src[0])
	}
}

func TestReplicationFaultFreeCorrect(t *testing.T) {
	// ReplicateAll without faults must produce identical results to no
	// replication.
	a := buffer.F64{1, 2, 3, 4}
	r := New(Config{Workers: 2, Selector: core.ReplicateAll{}})
	for i := 0; i < 20; i++ {
		r.Submit("incr", incrTask(1), Inout("A", a))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, v := range a {
		if v != float64(i+1)+20 {
			t.Fatalf("a[%d]=%v", i, v)
		}
	}
	st := r.Stats()
	if st.Replicated != 20 {
		t.Fatalf("replicated %d of 20", st.Replicated)
	}
	if st.SDCDetected != 0 || st.DUERecovered != 0 {
		t.Fatalf("phantom faults: %+v", st)
	}
	if st.Checkpoint.Saves != 20 {
		t.Fatalf("checkpoint saves = %d", st.Checkpoint.Saves)
	}
}

func TestSDCInPrimaryDetectedAndRecovered(t *testing.T) {
	// Script an SDC into the primary (attempt 0): compare must mismatch,
	// re-execution + vote must recover the correct result.
	tr := trace.New()
	inj := fault.NewScript().Set(1, 0, fault.SDC).SetBit(1, 0, 13)
	a := buffer.F64{1, 2, 3, 4}
	want := buffer.F64{2, 3, 4, 5}
	r := New(Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: inj, Tracer: tr})
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !a.EqualTo(want) {
		t.Fatalf("SDC not recovered: %v", a)
	}
	st := r.Stats()
	if st.SDCDetected != 1 || st.SDCRecovered != 1 {
		t.Fatalf("stats %+v", st)
	}
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("records %d", len(recs))
	}
	for _, e := range []trace.Event{trace.Checkpointed, trace.ReplicaCreated,
		trace.Compared, trace.SDCDetected, trace.Restored, trace.Reexecuted, trace.Voted} {
		if !slices.Contains(recs[0].Events, e) {
			t.Fatalf("missing event %v in %v", e, recs[0].Events)
		}
	}
}

// TestCoincidentFlipAdopted pins duplicate-and-compare's blind spot
// (DESIGN.md §3): when the primary (attempt 0) and its replica (attempt 1)
// take an SDC on the same bit, the two corrupt results agree, the compare
// passes, and the corrupt value is adopted as the task's output — no
// detection, no error. That is Figure 2's rule working as specified, not a
// runtime bug.
func TestCoincidentFlipAdopted(t *testing.T) {
	inj := fault.NewScript().
		Set(1, 0, fault.SDC).SetBit(1, 0, 13).
		Set(1, 1, fault.SDC).SetBit(1, 1, 13)
	a := buffer.F64{1, 2, 3, 4}
	corrupt := buffer.F64{2, 3, 4, 5}
	corrupt.FlipBit(13)
	r := New(Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatalf("Shutdown = %v, want nil: agreeing corrupt results are adopted silently", err)
	}
	if !a.EqualTo(corrupt) {
		t.Fatalf("A = %v, want the coincidently flipped %v adopted", a, corrupt)
	}
	if st := r.Stats(); st.SDCDetected != 0 || st.Replicated != 1 {
		t.Fatalf("stats %+v, want one replicated task and no detection", st)
	}
}

func TestSDCInReplicaRecovered(t *testing.T) {
	inj := fault.NewScript().Set(1, 1, fault.SDC).SetBit(1, 1, 40)
	a := buffer.F64{10, 20}
	r := New(Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("incr", incrTask(5), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 15 || a[1] != 25 {
		t.Fatalf("replica SDC corrupted result: %v", a)
	}
	if st := r.Stats(); st.SDCRecovered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTwoSDCsRecoveredByExtraReexecution(t *testing.T) {
	// Primary corrupted AND the first re-execution corrupted differently:
	// no pair of {primary, replica, reexec1} agrees, so the engine must
	// re-execute again; the clean second re-execution agrees with the
	// clean replica and recovery succeeds.
	inj := fault.NewScript().
		Set(1, 0, fault.SDC).SetBit(1, 0, 3).
		Set(1, 2, fault.SDC).SetBit(1, 2, 7)
	a := buffer.F64{1, 2}
	r := New(Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 || a[1] != 3 {
		t.Fatalf("double SDC not recovered: %v", a)
	}
	st := r.Stats()
	if st.SDCRecovered != 1 || st.Reexecutions != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPersistentSDCExhaustsVote(t *testing.T) {
	// SDC with a *distinct* bit in every attempt: no two results can ever
	// agree, the attempt budget runs out, and the run reports a
	// no-majority error.
	inj := fault.NewScript()
	for att := 0; att < 12; att++ {
		inj.Set(1, att, fault.SDC).SetBit(1, att, int64(att))
	}
	a := buffer.F64{1, 2}
	r := New(Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("incr", incrTask(1), Inout("A", a))
	err := r.Shutdown()
	if err == nil {
		t.Fatal("expected vote failure error")
	}
	if !strings.Contains(err.Error(), "majority") {
		t.Fatalf("unexpected error: %v", err)
	}
	if st := r.Stats(); st.VoteFailures != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDUEInPrimaryReplicaSurvives(t *testing.T) {
	tr := trace.New()
	inj := fault.NewScript().Set(1, 0, fault.DUE)
	a := buffer.F64{3}
	r := New(Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj, Tracer: tr})
	r.Submit("incr", incrTask(4), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 7 {
		t.Fatalf("DUE not recovered: %v", a[0])
	}
	st := r.Stats()
	if st.DUERecovered != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !slices.Contains(tr.Records()[0].Events, trace.DUERecovered) {
		t.Fatal("missing DUERecovered event")
	}
}

func TestDUEInReplicaPrimarySurvives(t *testing.T) {
	inj := fault.NewScript().Set(1, 1, fault.DUE)
	a := buffer.F64{3}
	r := New(Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("incr", incrTask(4), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 7 {
		t.Fatalf("result wrong after replica crash: %v", a[0])
	}
	if st := r.Stats(); st.DUERecovered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoubleDUERecoveredByReexecution(t *testing.T) {
	inj := fault.NewScript().Set(1, 0, fault.DUE).Set(1, 1, fault.DUE)
	a := buffer.F64{1}
	r := New(Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 {
		t.Fatalf("double crash not recovered: %v", a[0])
	}
	// Both attempts died, so recovery needs two clean re-executions that
	// agree with each other before a result may be adopted.
	st := r.Stats()
	if st.DUERecovered != 1 || st.Reexecutions != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPersistentDUEExhaustsAttempts(t *testing.T) {
	inj := fault.NewScript()
	for att := 0; att < 10; att++ {
		inj.Set(1, att, fault.DUE)
	}
	a := buffer.F64{1}
	r := New(Config{Workers: 1, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestUnprotectedSDCPropagates(t *testing.T) {
	// An SDC on an unreplicated task must corrupt the real output: this is
	// the threat the heuristic trades against.
	inj := fault.NewScript().Set(1, 0, fault.SDC).SetBit(1, 0, 0)
	a := buffer.F64{1, 2}
	r := New(Config{Workers: 1, Selector: core.ReplicateNone{}, Injector: inj})
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if a[0] == 2 && a[1] == 3 {
		t.Fatal("unprotected SDC did not propagate")
	}
	st := r.Stats()
	if st.UnprotectedSDC != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnprotectedDUECounted(t *testing.T) {
	inj := fault.NewScript().Set(1, 0, fault.DUE)
	a := buffer.F64{1}
	r := New(Config{Workers: 1, Injector: inj})
	r.Submit("incr", incrTask(1), Inout("A", a))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.UnprotectedDUE != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReplicatedTaskWithInAndOutArgs(t *testing.T) {
	// Replication with pure In and pure Out args: In is shared, Out cloned
	// and adopted; checkpoint covers In only.
	inj := fault.NewScript().Set(2, 0, fault.SDC).SetBit(2, 0, 5)
	src := buffer.F64{2, 4, 6}
	dst := buffer.NewF64(3)
	r := New(Config{Workers: 2, Selector: core.ReplicateAll{}, Injector: inj})
	r.Submit("fill", func(c *Ctx) {
		s := c.F64(0)
		for i := range s {
			s[i] = float64(i+1) * 2
		}
	}, Out("S", src))
	r.Submit("copy2x", func(c *Ctx) {
		s, d := c.F64(0), c.F64(1)
		for i := range d {
			d[i] = 2 * s[i]
		}
	}, In("S", src), Out("D", dst))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	want := buffer.F64{4, 8, 12}
	if !dst.EqualTo(want) {
		t.Fatalf("dst=%v", dst)
	}
	if src[0] != 2 { // In arg untouched
		t.Fatalf("src corrupted: %v", src)
	}
}

func TestSeededFaultStorm(t *testing.T) {
	// High fault rates + full replication: the final numeric result must
	// still be exactly correct — every injected fault recovered. The
	// output buffer is deliberately large: two executions hit by an SDC at
	// the *same* bit produce identical corrupted outputs, which no
	// comparator can detect (the inherent DMR residual); with 16384
	// output bits the chance of that collision is negligible.
	inj := NewStormInjector(99, 0.15, 0.15)
	a := buffer.NewF64(256)
	const n = 200
	r := New(Config{Workers: 4, Selector: core.ReplicateAll{}, Injector: inj})
	for i := 0; i < n; i++ {
		r.Submit("inc", incrTask(1), Inout("A", a))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != n {
			t.Fatalf("fault storm corrupted result: a[%d]=%v, want %d", i, a[i], n)
		}
	}
	st := r.Stats()
	if st.SDCDetected == 0 && st.DUERecovered == 0 {
		t.Fatal("storm injected nothing — test is vacuous")
	}
	if st.SDCDetected != st.SDCRecovered {
		t.Fatalf("some SDCs unrecovered: %+v", st)
	}
	if st.UnprotectedSDC != 0 || st.UnprotectedDUE != 0 {
		t.Fatalf("replicated run had unprotected events: %+v", st)
	}
}

// NewStormInjector returns a fixed-rate injector for storm tests.
func NewStormInjector(seed uint64, pDUE, pSDC float64) fault.Injector {
	return fault.NewFixedRate(seed, pDUE, pSDC)
}

func TestAppFITIntegration(t *testing.T) {
	// End-to-end: App_FIT on a stream of equal tasks at 10× rates
	// replicates ~90% and keeps unprotected FIT under the threshold.
	const n = 400
	argElems := 4096
	taskBytes := int64(argElems) * 8
	rates := fit.Roadrunner().Scale(10)
	due, sdc := rates.TaskFIT(taskBytes * n)
	thr := (due + sdc) / 10
	sel := core.NewAppFIT(thr, n)
	r := New(Config{Workers: 4, Selector: sel, Rates: rates, RatesSet: true})
	bufs := make([]buffer.F64, n)
	for i := 0; i < n; i++ {
		bufs[i] = buffer.NewF64(argElems)
		r.Submit("work", incrTask(1), Inout("T"+itoa(i), bufs[i]))
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	frac := st.PctTasksReplicated()
	if frac < 85 || frac > 95 {
		t.Fatalf("replicated %.1f%%, want ~90%%", frac)
	}
	if sel.CurrentFIT() > thr+1e-9 {
		t.Fatalf("unprotected FIT %g exceeds threshold %g", sel.CurrentFIT(), thr)
	}
}

func TestCtxAccessors(t *testing.T) {
	r := New(Config{Workers: 1})
	c128 := buffer.NewC128(2)
	u8 := buffer.NewU8(2)
	var gotAttempt int
	var gotID uint64
	var gotN int
	id := r.Submit("t", func(c *Ctx) {
		gotN = c.NArgs()
		gotAttempt = c.attempt
		gotID = c.t.id
		c.C128(0)[0] = 1 + 2i
		c.U8(1)[0] = 7
		_ = c.Buf(0)
	}, Inout("c", c128), Inout("u", u8))
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if gotN != 2 || gotAttempt != 0 || gotID != id {
		t.Fatalf("ctx accessors: n=%d attempt=%d id=%d", gotN, gotAttempt, gotID)
	}
	if c128[0] != 1+2i || u8[0] != 7 {
		t.Fatal("typed writes lost")
	}
}

func TestStatsPercentages(t *testing.T) {
	var s Stats
	if s.PctTasksReplicated() != 0 || s.PctTimeReplicated() != 0 {
		t.Fatal("zero stats must give 0%")
	}
	s = Stats{Completed: 4, Replicated: 1, TaskTimeNs: 100, ReplicatedTimeNs: 25}
	if s.PctTasksReplicated() != 25 || s.PctTimeReplicated() != 25 {
		t.Fatalf("pct wrong: %v %v", s.PctTasksReplicated(), s.PctTimeReplicated())
	}
}

func TestSubmitAfterShutdownPanics(t *testing.T) {
	r := New(Config{Workers: 1})
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Shutdown must panic")
		}
	}()
	r.Submit("x", func(*Ctx) {})
}

func TestShutdownIdempotent(t *testing.T) {
	r := New(Config{Workers: 2})
	r.Submit("x", func(*Ctx) {})
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersAccessorAndDefaults(t *testing.T) {
	r := New(Config{})
	if r.cfg.Workers != 1 {
		t.Fatalf("default workers = %d", r.cfg.Workers)
	}
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicResultAcrossWorkerCounts(t *testing.T) {
	// The same DAG must produce identical results with 1 and 4 workers.
	run := func(workers int) buffer.F64 {
		a := buffer.F64{1, 1, 1, 1}
		r := New(Config{Workers: workers})
		rng := xrand.New(5)
		for i := 0; i < 100; i++ {
			k := rng.Intn(4)
			delta := float64(rng.Intn(10))
			r.Submit("u", func(c *Ctx) {
				b := c.F64(0)
				b[k] += delta
			}, Inout("A", a))
		}
		if err := r.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	r1, r4 := run(1), run(4)
	if !r1.EqualTo(r4) {
		t.Fatalf("nondeterministic across worker counts: %v vs %v", r1, r4)
	}
}

func BenchmarkSubmitExecuteNoReplication(b *testing.B) {
	r := New(Config{Workers: 2})
	buf := buffer.NewF64(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Submit("nop", func(c *Ctx) {
			s := c.F64(0)
			s[0]++
		}, Inout("A", buf))
	}
	r.Shutdown()
}

func BenchmarkSubmitExecuteFullReplication(b *testing.B) {
	r := New(Config{Workers: 2, Selector: core.ReplicateAll{}})
	buf := buffer.NewF64(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Submit("nop", func(c *Ctx) {
			s := c.F64(0)
			s[0]++
		}, Inout("A", buf))
	}
	r.Shutdown()
}
