package simnet

import (
	"testing"

	"appfit/internal/simtime"
)

// TestSelfSendContract locks the self-send accounting contract documented
// on links to both pricing engines at once: a src == dst payload counts in
// Messages and BytesSent, never in WireBytes, occupies no link, and is
// delivered immediately — Meter.Charge returns 0 whatever makespan other
// traffic accumulated, and Network.Send fires at the engine's current
// time. One table drives a flat and a placed instance of each engine so
// the engines (and their flat/topo variants) cannot drift apart.
func TestSelfSendContract(t *testing.T) {
	cfg := Marenostrum()
	topoOf := func() *Topology {
		topo, err := NewTopology([]int{0, 0, 1, 1}, MemoryBus(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}

	// accounts abstracts the links counters both engines promote.
	type accounts interface {
		Messages() uint64
		BytesSent() int64
		WireBytes() int64
	}
	// drive sends pre bytes from 0 to 2 (a cross-link payload raising the
	// clock), then a self-send of bytes on rank 1, and returns the
	// self-send's delivery time.
	engines := []struct {
		name string
		run  func(pre, bytes int64) (accounts, simtime.Time)
	}{
		{"meter/flat", func(pre, bytes int64) (accounts, simtime.Time) {
			flat, err := BlockTopology(4, 1, cfg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMeter(flat)
			m.Charge(0, 2, pre)
			return m, m.Charge(1, 1, bytes)
		}},
		{"meter/topo", func(pre, bytes int64) (accounts, simtime.Time) {
			m := NewMeter(topoOf())
			m.Charge(0, 2, pre)
			return m, m.Charge(1, 1, bytes)
		}},
		{"network/flat", func(pre, bytes int64) (accounts, simtime.Time) {
			eng := simtime.New()
			n := New(eng, cfg)
			n.Send(0, 2, pre, func() {})
			var at simtime.Time = -1
			n.Send(1, 1, bytes, func() { at = eng.Now() })
			eng.Run()
			return n, at
		}},
		{"network/topo", func(pre, bytes int64) (accounts, simtime.Time) {
			eng := simtime.New()
			n := placedNetwork(eng, topoOf())
			n.Send(0, 2, pre, func() {})
			var at simtime.Time = -1
			n.Send(1, 1, bytes, func() { at = eng.Now() })
			eng.Run()
			return n, at
		}},
	}

	const pre, bytes = 1 << 20, 4096
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			acc, at := e.run(pre, bytes)
			if got := acc.Messages(); got != 2 {
				t.Errorf("Messages = %d, want 2 (self-sends count)", got)
			}
			if got := acc.BytesSent(); got != pre+bytes {
				t.Errorf("BytesSent = %d, want %d (self-sends count)", got, pre+bytes)
			}
			if got := acc.WireBytes(); got != pre {
				t.Errorf("WireBytes = %d, want %d (self-sends never cross the wire)", got, pre)
			}
			if at != 0 {
				t.Errorf("self-send delivered at %d, want 0 (immediate, independent of other traffic)", at)
			}
		})
	}
}
