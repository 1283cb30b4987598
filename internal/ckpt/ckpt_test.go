package ckpt

import (
	"sync"
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/xrand"
)

func randF64(seed uint64, n int) buffer.F64 {
	r := xrand.New(seed)
	b := buffer.NewF64(n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return b
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	s := NewStore(1)
	in := randF64(1, 64)
	orig := in.Clone()
	s.Save(7, []buffer.Buffer{in})
	// Task execution scribbles over the input (inout semantics).
	for i := range in {
		in[i] = -1
	}
	if err := s.Restore(7, []buffer.Buffer{in}); err != nil {
		t.Fatal(err)
	}
	if !in.EqualTo(orig) {
		t.Fatal("restore did not recover original input")
	}
}

func TestCheckpointIsIsolated(t *testing.T) {
	// Mutating the live buffer after Save must not affect the checkpoint.
	s := NewStore(1)
	in := randF64(2, 32)
	orig := in.Clone()
	s.Save(1, []buffer.Buffer{in})
	in.FlipBit(5)
	dst := buffer.NewF64(32)
	if err := s.Restore(1, []buffer.Buffer{dst}); err != nil {
		t.Fatal(err)
	}
	if !dst.EqualTo(orig) {
		t.Fatal("checkpoint shares storage with live buffer")
	}
}

func TestRestoreUnknown(t *testing.T) {
	s := NewStore(1)
	if err := s.Restore(99, nil); err == nil {
		t.Fatal("restore of unknown id must fail")
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	s := NewStore(1)
	s.Save(1, []buffer.Buffer{buffer.NewF64(4)})
	if err := s.Restore(1, []buffer.Buffer{buffer.NewF64(4), buffer.NewF64(4)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := s.Restore(1, []buffer.Buffer{buffer.NewF64(5)}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if err := s.Restore(1, []buffer.Buffer{buffer.NewU8(32)}); err == nil {
		t.Fatal("type mismatch must fail")
	}
}

func TestNilArgs(t *testing.T) {
	s := NewStore(1)
	s.Save(1, []buffer.Buffer{nil, buffer.F64{1, 2}})
	dst := []buffer.Buffer{nil, buffer.NewF64(2)}
	if err := s.Restore(1, dst); err != nil {
		t.Fatal(err)
	}
	if got := dst[1].(buffer.F64); got[0] != 1 || got[1] != 2 {
		t.Fatalf("restored %v", got)
	}
	// Saved nil but dst non-nil is an error.
	if err := s.Restore(1, []buffer.Buffer{buffer.NewF64(1), buffer.NewF64(2)}); err == nil {
		t.Fatal("nil/non-nil mismatch must fail")
	}
}

func TestReleaseAndAccounting(t *testing.T) {
	s := NewStore(1)
	s.Save(1, []buffer.Buffer{buffer.NewF64(100)}) // 800 bytes
	s.Save(2, []buffer.Buffer{buffer.NewF64(50)})  // 400 bytes
	st := s.Stats()
	if st.BytesSaved != 1200 || st.BytesLive != 1200 || st.PeakLive != 1200 {
		t.Fatalf("stats = %+v", st)
	}
	s.Release(1)
	st = s.Stats()
	if st.BytesLive != 400 || st.PeakLive != 1200 {
		t.Fatalf("after release: %+v", st)
	}
	if len(s.chks) != 1 {
		t.Fatalf("live = %d", len(s.chks))
	}
	s.Release(1) // double release is a no-op
	if s.Stats().BytesLive != 400 {
		t.Fatal("double release changed accounting")
	}
	s.Release(42) // absent id is a no-op
}

func TestResaveReplaces(t *testing.T) {
	s := NewStore(1)
	a := buffer.F64{1}
	b := buffer.F64{2}
	s.Save(1, []buffer.Buffer{a})
	s.Save(1, []buffer.Buffer{b})
	dst := buffer.NewF64(1)
	if err := s.Restore(1, []buffer.Buffer{dst}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 2 {
		t.Fatalf("restored %v, want re-saved value 2", dst[0])
	}
	if st := s.Stats(); st.BytesLive != 8 {
		t.Fatalf("live bytes = %d after replace", st.BytesLive)
	}
}

func TestMultipleCopies(t *testing.T) {
	s := NewStore(3)
	s.Save(1, []buffer.Buffer{buffer.NewF64(10)}) // 80 bytes × 3
	st := s.Stats()
	if st.Copies != 3 {
		t.Fatalf("copies = %d", st.Copies)
	}
	if st.BytesLive != 240 {
		t.Fatalf("live = %d, want 240 (3 copies)", st.BytesLive)
	}
	if NewStore(0).Stats().Copies != 1 {
		t.Fatal("copies must clamp to 1")
	}
}

func TestRestoreCountsAndConcurrency(t *testing.T) {
	s := NewStore(1)
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			in := randF64(id, 16)
			s.Save(id, []buffer.Buffer{in})
			dst := buffer.NewF64(16)
			if err := s.Restore(id, []buffer.Buffer{dst}); err != nil {
				t.Error(err)
				return
			}
			if !dst.EqualTo(in) {
				t.Error("concurrent restore mismatch")
			}
			s.Release(id)
		}(uint64(i + 1))
	}
	wg.Wait()
	st := s.Stats()
	if st.Saves != n || st.Restores != n {
		t.Fatalf("saves=%d restores=%d", st.Saves, st.Restores)
	}
	if st.BytesLive != 0 || len(s.chks) != 0 {
		t.Fatalf("leaked checkpoints: live=%d bytes=%d", len(s.chks), st.BytesLive)
	}
}

// TestCheckpointsAreLeases: every saved buffer comes from the store's pool
// and goes back to it — at Release, and when a second Save replaces the
// first — and a recycled buffer restores its new contents, not its old.
func TestCheckpointsAreLeases(t *testing.T) {
	pool := buffer.NewPool()
	pool.Poison()
	s := NewStoreOn(pool, 2)
	first := []buffer.Buffer{buffer.F64{1, 2}, nil, buffer.U8{3}}
	s.Save(1, first)
	if st := pool.Stats(); st.Leases != 4 || st.Returns != 0 {
		t.Fatalf("after Save: %+v, want 4 leases out", st)
	}
	second := []buffer.Buffer{buffer.F64{5, 6}, nil, buffer.U8{7}}
	s.Save(1, second)
	if st := pool.Stats(); st.Leases != 8 || st.Returns != 4 {
		t.Fatalf("after replacing Save: %+v, want the first set returned", st)
	}
	s.Release(1)
	s.Save(2, first) // served from the returned sets, poison and all
	dst := []buffer.Buffer{buffer.NewF64(2), nil, buffer.NewU8(1)}
	if err := s.Restore(2, dst); err != nil {
		t.Fatal(err)
	}
	if !dst[0].EqualTo(first[0]) || !dst[2].EqualTo(first[2]) {
		t.Fatalf("restored %v from a recycled checkpoint, want %v", dst, first)
	}
	s.Release(2)
	st := pool.Stats()
	if st.Leases != st.Returns || st.Hits != 4 {
		t.Fatalf("after Release: %+v, want balance and 4 hits", st)
	}
	if got := s.Stats(); got.BytesLive != 0 || got.BytesSaved != 3*2*17 {
		t.Fatalf("accounting %+v", got)
	}
}

func BenchmarkSaveRestore1K(b *testing.B) {
	s := NewStore(1)
	in := randF64(1, 1024)
	bufs := []buffer.Buffer{in}
	b.SetBytes(in.SizeBytes())
	for i := 0; i < b.N; i++ {
		id := uint64(i + 1)
		s.Save(id, bufs)
		s.Restore(id, bufs)
		s.Release(id)
	}
}
