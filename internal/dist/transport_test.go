package dist

import (
	"errors"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/rt"
	"appfit/internal/simnet"
	"appfit/internal/simtime"
)

// Pending returns the number of sent-but-unreceived messages; tests use it
// to assert a World drained its traffic.
func (d *Direct) Pending() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for _, q := range sh.queues {
			if q[0].deliver == nil {
				n += len(q)
			}
		}
		sh.mu.Unlock()
	}
	return n
}

func TestDirectFIFOAndPending(t *testing.T) {
	d := NewDirect()
	m := Match{Src: 0, Dst: 1, Class: ClassP2P, Tag: 3}
	d.Send(m, buffer.F64{1})
	d.Send(m, buffer.F64{2})
	if p := d.Pending(); p != 2 {
		t.Fatalf("Pending = %d, want 2", p)
	}
	for want := 1.0; want <= 2; want++ {
		p, err := d.Recv(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.(buffer.F64)[0]; got != want {
			t.Fatalf("Recv = %v, want %v (FIFO violated)", got, want)
		}
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("Pending = %d, want 0", p)
	}
}

func TestDirectCloseUnblocksRecv(t *testing.T) {
	d := NewDirect()
	done := make(chan error, 1)
	go func() {
		_, err := d.Recv(Match{Src: 0, Dst: 1})
		done <- err
	}()
	d.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after Close = %v, want ErrClosed", err)
	}
}

func TestSimTransportChargesTheFabric(t *testing.T) {
	// A World over the simnet transport delivers the same values as Direct
	// while accounting every message's latency + bandwidth cost with
	// per-link serialization.
	const k = 8
	const n = 1 << 10
	cfg := simnet.Marenostrum()
	topo, err := simnet.BlockTopology(2, 1, cfg, cfg) // the flat fabric
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimTopology(topo)
	w := NewWorld(Config{Ranks: 2, Transport: sim})
	a := buffer.NewF64(n)
	d := buffer.NewF64(n)
	sum := buffer.NewF64(1)
	for i := 0; i < k; i++ {
		v := float64(i + 1)
		w.Comm().Rank(0).Runtime().Submit("fill", func(ctx *rt.Ctx) {
			x := ctx.F64(0)
			for j := range x {
				x[j] = v
			}
		}, rt.Out("a", a))
		w.Comm().Rank(0).Send(1, i, "a", a)
		w.Comm().Rank(1).Recv(0, i, "d", d)
		w.Comm().Rank(1).Runtime().Submit("acc", func(ctx *rt.Ctx) {
			ctx.F64(1)[0] += ctx.F64(0)[0]
		}, rt.In("d", d), rt.Inout("sum", sum))
	}
	if err := w.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if want := float64(k * (k + 1) / 2); sum[0] != want {
		t.Fatalf("sum = %v, want %v", sum[0], want)
	}
	if got := sim.meter.Messages(); got != k {
		t.Fatalf("Messages = %d, want %d", got, k)
	}
	if got, want := sim.BytesSent(), int64(k*n*8); got != want {
		t.Fatalf("BytesSent = %d, want %d", got, want)
	}
	// All k messages cross the same directed link, so the virtual clock must
	// show exactly k serialized transfers.
	if got, want := sim.Now(), simtime.Time(k)*cfg.TransferTime(n*8); got != want {
		t.Fatalf("virtual time = %v, want %v", got, want)
	}
}
