package dist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"appfit/internal/buffer"
	"appfit/internal/rt"
)

// TestCommContextIsolation64Ranks is the tentpole's isolation gate, run
// under -race by `make check`: a 64-rank World carrying four traffic
// streams that all use the same user tag —
//
//   - a ring on the world communicator;
//   - a ring on an "alias" communicator from a single-color Split: same 64
//     members, same world-rank pairs, same tag, so its Matches differ from
//     the world's in the context id alone;
//   - a ring inside each half of a two-color Split (the issue's two groups
//     with identical tags), with keys reversed so comm ranks exercise the
//     dense re-numbering;
//   - an AllreduceSum on each half, also under the shared tag.
//
// Every payload is checked: one cross-context rendezvous anywhere and some
// receiver sees another stream's value.
func TestCommContextIsolation64Ranks(t *testing.T) {
	const n = 64
	const tag = 7 // every stream uses this tag
	w := NewWorld(Config{Ranks: n})
	world := w.Comm()

	// Alias communicator: all 64 members, identity order, fresh context.
	aliasSubs, err := world.Split(make([]int, n), identity(n))
	if err != nil {
		t.Fatal(err)
	}
	alias := aliasSubs[0]
	if alias.ctx == world.ctx {
		t.Fatal("alias comm shares the world context")
	}

	// Two halves by parity, reversed key order.
	colors := make([]int, n)
	keys := make([]int, n)
	for i := 0; i < n; i++ {
		colors[i] = i % 2
		keys[i] = n - i
	}
	halves, err := world.Split(colors, keys)
	if err != nil {
		t.Fatal(err)
	}

	ring := func(c *Comm, prefix string, base float64, dst []buffer.F64) {
		size := c.Size()
		for i := 0; i < size; i++ {
			c.Rank(i).Send((i+1)%size, tag, prefix+"s", buffer.F64{base + float64(i)})
			c.Rank(i).Recv(((i-1)%size+size)%size, tag, prefix+"d", dst[i])
		}
	}
	worldDst := newScalars(n)
	aliasDst := newScalars(n)
	halfDst := [2][]buffer.F64{newScalars(n / 2), newScalars(n / 2)}
	red := [2][]buffer.F64{newScalars(n / 2), newScalars(n / 2)}
	ring(world, "w", 1000, worldDst)
	ring(alias, "a", 2000, aliasDst)
	for h := 0; h < 2; h++ {
		g := halves[h] // member h of the parity split is in group h
		ring(g, "g", 3000+1000*float64(h), halfDst[h])
		for i := 0; i < g.Size(); i++ {
			red[h][i][0] = float64(i)
		}
		g.AllreduceSum(tag, "red", red[h])
	}

	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	sum := float64((n / 2) * (n/2 - 1) / 2)
	for i := 0; i < n; i++ {
		left := ((i-1)%n + n) % n
		if worldDst[i][0] != 1000+float64(left) {
			t.Fatalf("world ring rank %d got %v (cross-context match)", i, worldDst[i][0])
		}
		if aliasDst[i][0] != 2000+float64(left) {
			t.Fatalf("alias ring rank %d got %v (cross-context match)", i, aliasDst[i][0])
		}
	}
	for h := 0; h < 2; h++ {
		size := n / 2
		for i := 0; i < size; i++ {
			left := ((i-1)%size + size) % size
			if halfDst[h][i][0] != 3000+1000*float64(h)+float64(left) {
				t.Fatalf("group %d ring member %d got %v (cross-group match)", h, i, halfDst[h][i][0])
			}
			if red[h][i][0] != sum {
				t.Fatalf("group %d allreduce member %d = %v, want %v", h, i, red[h][i][0], sum)
			}
		}
	}
	if d, ok := w.tr.(*Direct); ok && d.Pending() != 0 {
		t.Fatalf("transport still holds %d messages", d.Pending())
	}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func newScalars(n int) []buffer.F64 {
	b := make([]buffer.F64, n)
	for i := range b {
		b[i] = buffer.NewF64(1)
	}
	return b
}

// TestDirectShardedConcurrency hammers the sharded matcher directly (no
// World): many sender/receiver goroutine pairs over many mailboxes, with
// several mailboxes deliberately colliding on a shard, checking payloads
// route and order correctly. Under -race this exercises the per-shard
// lock/cond discipline.
func TestDirectShardedConcurrency(t *testing.T) {
	d := NewDirect()
	const pairs = 200
	const msgs = 50
	var wg sync.WaitGroup
	errs := make(chan string, pairs)
	for p := 0; p < pairs; p++ {
		m := Match{Src: p, Dst: p + 1, Class: ClassP2P, Tag: p % 7}
		wg.Add(2)
		go func(m Match, p int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				d.Send(m, buffer.F64{float64(p), float64(i)})
			}
		}(m, p)
		go func(m Match, p int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				b, err := d.Recv(m)
				if err != nil {
					errs <- err.Error()
					return
				}
				got := b.(buffer.F64)
				if got[0] != float64(p) || got[1] != float64(i) {
					errs <- "payload routed to wrong mailbox or out of order"
					return
				}
			}
		}(m, p)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if d.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", d.Pending())
	}
}

// TestWorld256RanksMixedTraffic is the scale gate from ROADMAP: a 256-rank
// World over the sharded Direct transport running mixed traffic — ring
// point-to-point halo exchange, a dissemination barrier (8 rounds at 256
// ranks), a ring allgather of per-rank scalars, and an allreduce — all
// concurrently in flight. Must pass under -race; sized so the race
// detector's ~8k-goroutine budget and CI time are respected.
func TestWorld256RanksMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank stress skipped in -short mode")
	}
	const n = 256
	w := NewWorld(Config{Ranks: n})
	c := w.Comm()

	// Phase 1: ring halo exchange — every rank sends its value right and
	// receives its left neighbor's.
	own := make([]buffer.F64, n)
	halo := make([]buffer.F64, n)
	for i := 0; i < n; i++ {
		own[i] = buffer.F64{float64(i)}
		halo[i] = buffer.NewF64(1)
	}
	for i := 0; i < n; i++ {
		c.Rank(i).Send((i+1)%n, 0, "own", own[i])
		c.Rank(i).Recv(((i-1)%n+n)%n, 0, "halo", halo[i])
	}

	// Phase 2: barrier, gated on the halo region so it orders after phase 1
	// on every rank.
	for i := 0; i < n; i++ {
		c.Rank(i).Barrier(1, rt.In("halo", halo[i]))
	}

	// Phase 3: ring allgather of every rank's scalar.
	name := func(j int) string { return "g" + string(rune(j)) }
	gbufs := make([][]buffer.Buffer, n)
	for i := 0; i < n; i++ {
		gbufs[i] = make([]buffer.Buffer, n)
		for j := 0; j < n; j++ {
			if j == i {
				gbufs[i][j] = buffer.F64{float64(100000 + i)}
			} else {
				gbufs[i][j] = buffer.NewF64(1)
			}
		}
	}
	c.Allgather(2, name, gbufs)

	// Phase 4: allreduce-max over a per-rank scalar.
	rbufs := make([]buffer.F64, n)
	for i := 0; i < n; i++ {
		rbufs[i] = buffer.F64{float64(i % 13)}
	}
	c.Allreduce(3, "r", rbufs, OpMax)

	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		left := ((i-1)%n + n) % n
		if halo[i][0] != float64(left) {
			t.Fatalf("rank %d halo = %v, want %d", i, halo[i][0], left)
		}
		for j := 0; j < n; j++ {
			if got := gbufs[i][j].(buffer.F64)[0]; got != float64(100000+j) {
				t.Fatalf("rank %d allgather block %d = %v", i, j, got)
			}
		}
		if rbufs[i][0] != 12 {
			t.Fatalf("rank %d allreduce max = %v, want 12", i, rbufs[i][0])
		}
	}
	// p2p n + barrier n·log2(n) + allgather n(n-1) + allreduce 2(n-1).
	want := uint64(n + n*barrierRounds(n) + n*(n-1) + 2*(n-1))
	if got := w.MessagesSent(); got != want {
		t.Fatalf("sent %d messages, want %d", got, want)
	}
	if d, ok := w.tr.(*Direct); ok && d.Pending() != 0 {
		t.Fatalf("transport still holds %d messages", d.Pending())
	}
}

// TestWorldGoroutineCeiling: a waiting receive costs a mailbox entry, not a
// goroutine. A 256-rank World posts every rank's halo receive before the
// send that matches it, and holds each rank's one worker in a gate task the
// sends depend on, so every receive waits with every worker busy. At that
// point the process holds only its starting goroutines and the workers; a
// goroutine per waiting receive would double that. Over the whole lifetime
// — the halo exchange, an allreduce and Shutdown — the peak stays within
// the workers, Shutdown's one drainer per rank and a few fixed goroutines
// (the watchdog, the sampler).
func TestWorldGoroutineCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank stress skipped in -short mode")
	}
	const n, slack = 256, 8
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			g := int64(runtime.NumGoroutine())
			if g > peak.Load() {
				peak.Store(g)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	const perRank = 1
	w := NewWorld(Config{Ranks: n, RT: func(int) rt.Config { return rt.Config{Workers: perRank} }})
	workers := n * perRank
	c := w.Comm()
	halo := newScalars(n)
	red := newScalars(n)
	open := make(chan struct{})
	var gated atomic.Int32
	for i := 0; i < n; i++ {
		own := buffer.F64{float64(i)}
		red[i][0] = float64(i)
		c.Rank(i).Recv((i+1)%n, 0, "halo", halo[i])
		w.Comm().Rank(i).Runtime().Submit("gate", func(*rt.Ctx) {
			gated.Add(1)
			<-open
		}, rt.Out("own", own))
		c.Rank(i).Send(mod(i-1, n), 0, "own", own)
	}
	c.AllreduceSum(1, "red", red)
	for deadline := time.Now().Add(10 * time.Second); gated.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d gates reached", gated.Load(), n)
		}
	}
	if g := runtime.NumGoroutine(); g > base+workers+slack {
		t.Errorf("%d goroutines while every receive waits, want ≤ %d (%d at start + %d workers + %d)",
			g, base+workers+slack, base, workers, slack)
	}
	close(open)
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-stopped

	for i := 0; i < n; i++ {
		if halo[i][0] != float64((i+1)%n) || red[i][0] != n*(n-1)/2 {
			t.Fatalf("rank %d: halo %v, allreduce %v", i, halo[i][0], red[i][0])
		}
	}
	if limit := int64(base + workers + n + slack); peak.Load() > limit {
		t.Fatalf("peak %d goroutines, want ≤ %d (%d at start + %d workers + %d drainers + %d)",
			peak.Load(), limit, base, workers, n, slack)
	}
}
