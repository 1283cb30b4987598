package simnet

import (
	"testing"

	"appfit/internal/simtime"
)

func TestTransferTime(t *testing.T) {
	c := Config{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9}
	// 1 KB at 1 GB/s = 1 µs + 1 µs latency = 2 µs.
	if got := c.TransferTime(1000); got != simtime.FromSeconds(2e-6) {
		t.Fatalf("got %d", got)
	}
	if c.TransferTime(-5) != c.TransferTime(0) {
		t.Fatal("negative bytes must clamp")
	}
}

func TestMarenostrumSane(t *testing.T) {
	m := Marenostrum()
	if m.LatencySec <= 0 || m.BandwidthBytesPerSec < 1e9 {
		t.Fatalf("implausible defaults %+v", m)
	}
}

func TestSendDelivery(t *testing.T) {
	eng := simtime.New()
	n := New(eng, Config{LatencySec: 1e-6, BandwidthBytesPerSec: 1e9})
	delivered := simtime.Time(-1)
	n.Send(0, 1, 1000, func() { delivered = eng.Now() })
	eng.Run()
	if delivered != simtime.FromSeconds(2e-6) {
		t.Fatalf("delivered at %d", delivered)
	}
	if n.Messages() != 1 || n.BytesSent() != 1000 {
		t.Fatal("accounting wrong")
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := simtime.New()
	n := New(eng, Config{LatencySec: 0, BandwidthBytesPerSec: 1e9})
	var d1, d2 simtime.Time
	// Two messages on the same link must queue: 1 µs each.
	n.Send(0, 1, 1000, func() { d1 = eng.Now() })
	n.Send(0, 1, 1000, func() { d2 = eng.Now() })
	eng.Run()
	if d1 != simtime.FromSeconds(1e-6) || d2 != simtime.FromSeconds(2e-6) {
		t.Fatalf("d1=%d d2=%d", d1, d2)
	}
}

func TestDistinctLinksParallel(t *testing.T) {
	eng := simtime.New()
	n := New(eng, Config{LatencySec: 0, BandwidthBytesPerSec: 1e9})
	var d1, d2 simtime.Time
	n.Send(0, 1, 1000, func() { d1 = eng.Now() })
	n.Send(0, 2, 1000, func() { d2 = eng.Now() }) // different link
	eng.Run()
	if d1 != d2 {
		t.Fatalf("independent links must not serialize: %d vs %d", d1, d2)
	}
}

func TestSelfSendImmediate(t *testing.T) {
	eng := simtime.New()
	n := New(eng, Marenostrum())
	fired := false
	n.Send(3, 3, 1_000_000, func() { fired = true })
	eng.Run()
	if !fired || eng.Now() != 0 {
		t.Fatalf("self-send must deliver at now: fired=%v t=%d", fired, eng.Now())
	}
}

func TestReverseLinkIndependent(t *testing.T) {
	eng := simtime.New()
	n := New(eng, Config{LatencySec: 0, BandwidthBytesPerSec: 1e9})
	var d1, d2 simtime.Time
	n.Send(0, 1, 1000, func() { d1 = eng.Now() })
	n.Send(1, 0, 1000, func() { d2 = eng.Now() })
	eng.Run()
	if d1 != d2 {
		t.Fatalf("full-duplex links must not serialize: %d vs %d", d1, d2)
	}
}

// TestTransferIsSendWithoutTheEvent: Transfer occupies the link and accounts
// the message exactly as Send does, returns the time Send would deliver at
// (now for a self-send), and schedules nothing.
func TestTransferIsSendWithoutTheEvent(t *testing.T) {
	eng := simtime.New()
	n := New(eng, Config{LatencySec: 0, BandwidthBytesPerSec: 1e9})
	var sent simtime.Time
	n.Send(0, 1, 1000, func() { sent = eng.Now() })
	at := n.Transfer(0, 1, 1000) // queues behind the Send on the same link
	if self := n.Transfer(2, 2, 500); self != 0 {
		t.Fatalf("self-transfer delivers at %d, want now", self)
	}
	events := 0
	for eng.Step() {
		events++
	}
	if events != 1 {
		t.Fatalf("Transfer scheduled events: %d fired, want the Send's one", events)
	}
	if sent != simtime.FromSeconds(1e-6) || at != simtime.FromSeconds(2e-6) {
		t.Fatalf("send delivered at %d, transfer at %d", sent, at)
	}
	if n.Messages() != 3 || n.BytesSent() != 2500 || n.WireBytes() != 2000 {
		t.Fatalf("accounting: %d messages, %d bytes, %d on the wire", n.Messages(), n.BytesSent(), n.WireBytes())
	}
}
