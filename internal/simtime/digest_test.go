package simtime

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"appfit/internal/xrand"
)

// fireOrderDigest pins the engine's whole fire order on the stream below:
// the sha256 of every fired event's (time, kind, a, b). It was recorded
// on the (timestamp, insertion sequence) heap the engine used before its
// radix queue, and any queue must reproduce it.
const fireOrderDigest = "0f5c83cec3cc63a0fdc8bde088db92b7c03af00b7fc42dbbf37ab464754e25b8"

// TestEngineFireOrderDigest schedules 200 000 events from a seeded stream
// and hashes the order they fire in. Typed events (Post, PostAfter) and
// closures (At, After) interleave; about half the events share a
// timestamp with another, many of them scheduled at exactly Now from
// inside a handler while same-time events are still draining; some land
// 2^40 ns ahead, and the rest spread over every bit width up to 2^30.
// About 22 000 events are pending at the peak.
func TestEngineFireOrderDigest(t *testing.T) {
	const total = 200_000
	r := xrand.New(0x5eed)
	e := New()
	h := sha256.New()
	var rec [17]byte
	fired := 0
	record := func(k Kind, a, b int32) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.Now()))
		rec[8] = byte(k)
		binary.LittleEndian.PutUint32(rec[9:], uint32(a))
		binary.LittleEndian.PutUint32(rec[13:], uint32(b))
		h.Write(rec[:])
		fired++
	}
	var recent [8]Time // earlier targets, reused so future events tie too
	made := int32(0)
	var schedule func()
	children := func() {
		for n := r.Intn(4) - 1 + r.Intn(2); n > 0; n-- { // 9/8 a fire on average
			schedule()
		}
	}
	e.Handle(func(k Kind, a, b int32) {
		record(k, a, b)
		children()
	})
	schedule = func() {
		if made >= total {
			return
		}
		id := made
		made++
		var at Time
		switch x := r.Intn(32); {
		case x < 9: // at Now: from a handler, it joins the draining ties
			at = e.Now()
		case x < 16: // a target an earlier event was given
			at = max(e.Now(), recent[r.Intn(len(recent))])
		case x < 17:
			at = e.Now() + 1<<40 + Time(r.Intn(4))
		default:
			at = e.Now() + Time(r.Uint64()>>(34+r.Intn(30)))
		}
		recent[r.Intn(len(recent))] = at
		switch r.Intn(4) {
		case 0:
			e.Post(at, Kind(1+r.Intn(3)), id, int32(r.Intn(1000)))
		case 1:
			e.PostAfter(at-e.Now(), Kind(1+r.Intn(3)), id, -1)
		case 2:
			e.At(at, func() { record(kindFunc, id, 0); children() })
		default:
			e.After(at-e.Now(), func() { record(kindFunc, id, 1); children() })
		}
	}
	for made < total {
		for i := 0; i < 64; i++ {
			schedule()
		}
		e.Run()
	}
	if fired != total {
		t.Fatalf("fired %d events, scheduled %d", fired, total)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fireOrderDigest {
		t.Fatalf("fire-order digest %s, want %s (final time %d)", got, fireOrderDigest, e.Now())
	}
}
