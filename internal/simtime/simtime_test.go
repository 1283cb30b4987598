package simtime

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"appfit/internal/xrand"
)

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != Time(1_500_000_000) {
		t.Fatal("FromSeconds wrong")
	}
	if Time(2_000_000_000).Seconds() != 2.0 {
		t.Fatal("Seconds wrong")
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end=%d", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var sawNow Time
	e.After(100, func() {
		sawNow = e.Now()
		e.After(50, func() { sawNow = e.Now() })
	})
	e.Run()
	if sawNow != 150 {
		t.Fatalf("nested After landed at %d", sawNow)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling must panic")
		}
	}()
	e.At(50, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.After(-1, func() {})
}

func TestStepAndPending(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.queue.Len() != 2 {
		t.Fatalf("pending %d", e.queue.Len())
	}
	if !e.Step() || e.Now() != 1 || e.queue.Len() != 1 {
		t.Fatal("step 1 wrong")
	}
	if !e.Step() || e.Now() != 2 {
		t.Fatal("step 2 wrong")
	}
	if e.Step() {
		t.Fatal("empty queue must return false")
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain built during execution must run to completion.
	e := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	end := e.Run()
	if count != 100 || end != 99 {
		t.Fatalf("count=%d end=%d", count, end)
	}
}

func TestPropertyMonotoneClock(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		e := New()
		last := Time(-1)
		ok := true
		var schedule func(depth int)
		schedule = func(depth int) {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if depth < 3 {
				for i := 0; i < 3; i++ {
					e.After(Time(r.Intn(100)), func() { schedule(depth + 1) })
				}
			}
		}
		for i := 0; i < 5; i++ {
			e.At(Time(r.Intn(50)), func() { schedule(0) })
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTypedAndClosureEventsShareOneOrder: typed events and closures
// scheduled alternately at equal timestamps fire in insertion order — there
// is one queue and one tie rule — and Step and the queue count both forms
// alike.
func TestTypedAndClosureEventsShareOneOrder(t *testing.T) {
	e := New()
	var order []int32
	e.Handle(func(k Kind, a, b int32) {
		if k != 3 || b != -a {
			t.Errorf("handler got (%d, %d, %d)", k, a, b)
		}
		order = append(order, a)
	})
	for i := int32(0); i < 10; i += 2 {
		i := i
		e.Post(5, 3, i, -i)
		e.At(5, func() { order = append(order, i+1) })
	}
	e.PostAfter(7, 3, 100, -100)
	if e.queue.Len() != 11 {
		t.Fatalf("pending %d, want 11", e.queue.Len())
	}
	for n := 0; n < 10; n++ {
		if !e.Step() {
			t.Fatalf("step %d found the queue empty", n)
		}
	}
	if e.Now() != 5 || len(order) != 10 || e.queue.Len() != 1 {
		t.Fatalf("after 10 steps: now %d, fired %d, pending %d", e.Now(), len(order), e.queue.Len())
	}
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("tie order violated: %v", order)
		}
	}
	if end := e.Run(); end != 7 || order[len(order)-1] != 100 {
		t.Fatalf("end %d, order %v", end, order)
	}
}

func TestPostMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("typed event without a handler", func() { New().Post(1, 1, 0, 0) })
	e := New()
	e.Handle(func(Kind, int32, int32) {})
	mustPanic("kind 0", func() { e.Post(1, 0, 0, 0) })
	mustPanic("negative delay", func() { e.PostAfter(-1, 1, 0, 0) })
	e.Post(10, 1, 0, 0)
	e.Run()
	mustPanic("typed event in the past", func() { e.Post(5, 1, 0, 0) })
}

// TestClosureSlotsReusedAndReleased: a fired closure's slot is cleared —
// the engine retains no closure after Run — and reused, so a steady
// schedule-and-fire loop holds the side table at its high-water mark.
func TestClosureSlotsReusedAndReleased(t *testing.T) {
	e := New()
	for i := 0; i < 4; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	for round := 0; round < 100; round++ {
		e.After(1, func() { e.After(1, func() {}) })
		e.After(2, func() {})
		e.Run()
	}
	if len(e.fns) != 4 {
		t.Fatalf("side table grew to %d slots; at most 4 closures were ever pending", len(e.fns))
	}
	for i, fn := range e.fns {
		if fn != nil {
			t.Fatalf("slot %d still holds a closure after Run", i)
		}
	}
	nop := func() {}
	if n := testing.AllocsPerRun(100, func() { e.After(1, nop); e.Step() }); n != 0 {
		t.Fatalf("steady-state After+Step allocates %v times", n)
	}
}

// TestResetMatchesNew: an engine reset mid-run — typed events and closures
// pending, the clock past 0 — fires a fresh schedule at the times and in
// the order a new engine does, holds no closure, and reallocates nothing.
func TestResetMatchesNew(t *testing.T) {
	drive := func(e *Engine) (fired []Time) {
		e.Handle(func(k Kind, a, b int32) { fired = append(fired, e.Now()+Time(k)) })
		for i := int32(0); i < 40; i++ {
			e.Post(Time(i%7)*100, Kind(1+i%3), i, 0)
			e.At(Time(i%5)*90, func() { fired = append(fired, -e.Now()) })
		}
		e.Run()
		return fired
	}
	want := drive(New())
	e := New()
	e.Handle(func(Kind, int32, int32) {})
	for i := 0; i < 40; i++ {
		e.Post(Time(1000+i), 1, 0, 0)
		e.At(Time(2000+i), func() {})
	}
	for e.Now() < 1020 {
		e.Step()
	}
	e.Reset()
	held := slices.ContainsFunc(e.fns[:cap(e.fns)], func(fn func()) bool { return fn != nil })
	if e.Now() != 0 || e.queue.Len() != 0 || len(e.fns) != 0 || held {
		t.Fatalf("after Reset: now %d, %d pending, %d closure slots, a closure held: %t", e.Now(), e.queue.Len(), len(e.fns), held)
	}
	if got := drive(e); !slices.Equal(got, want) {
		t.Fatalf("reset engine fired %v, a new one %v", got, want)
	}
	e.Handle(func(Kind, int32, int32) {})
	if n := testing.AllocsPerRun(10, func() {
		e.Reset()
		e.Post(5, 1, 0, 0)
		e.Run()
	}); n != 0 {
		t.Fatalf("Reset and a rerun allocate %v times", n)
	}
}

// BenchmarkEngine is the event loop's record: one typed Post and one Step
// per iteration, 0 allocs/op. pending=N holds N events spread over 4 096 ns
// of future times; tie-burst holds 64, posted in bursts of 64 to one
// future time while the previous burst, all at the current time, drains.
func BenchmarkEngine(b *testing.B) {
	var delays [4096]Time
	r := xrand.New(1)
	for i := range delays {
		delays[i] = Time(1 + r.Intn(len(delays)))
	}
	for _, pending := range []int{16, 64, 1024} {
		b.Run("pending="+strconv.Itoa(pending), func(b *testing.B) {
			e := New()
			e.Handle(func(Kind, int32, int32) {})
			e.Grow(pending + 1)
			for i := 0; i < pending; i++ {
				e.Post(delays[i%len(delays)], 1, 0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.PostAfter(delays[i%len(delays)], 1, int32(i), 0)
				e.Step()
			}
		})
	}
	b.Run("tie-burst", func(b *testing.B) {
		e := New()
		e.Handle(func(Kind, int32, int32) {})
		e.Grow(65)
		at := Time(1)
		for i := 0; i < 64; i++ {
			e.Post(at, 1, 0, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				at += delays[i/64%len(delays)]
			}
			e.Post(at, 1, int32(i), 0)
			e.Step()
		}
	})
}
