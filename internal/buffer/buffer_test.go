package buffer

import (
	"math"
	"testing"
	"testing/quick"

	"appfit/internal/xrand"
)

func allKinds(n int) []Buffer {
	return []Buffer{NewF64(n), NewC128(n), NewU8(n)}
}

func fill(b Buffer, r *xrand.Rand) {
	switch v := b.(type) {
	case F64:
		for i := range v {
			v[i] = r.NormFloat64()
		}
	case C128:
		for i := range v {
			v[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
	case U8:
		for i := range v {
			v[i] = uint8(r.Uint64())
		}
	}
}

func TestSizeBytesAndBitLen(t *testing.T) {
	cases := []struct {
		b     Buffer
		bytes int64
	}{
		{NewF64(10), 80},
		{NewC128(10), 160},
		{NewU8(10), 10},
	}
	for _, c := range cases {
		if got := c.b.SizeBytes(); got != c.bytes {
			t.Errorf("%T SizeBytes = %d, want %d", c.b, got, c.bytes)
		}
		if got := c.b.BitLen(); got != c.bytes*8 {
			t.Errorf("%T BitLen = %d, want %d", c.b, got, c.bytes*8)
		}
	}
}

func TestCloneIsDeepCopy(t *testing.T) {
	r := xrand.New(1)
	for _, b := range allKinds(16) {
		fill(b, r)
		c := b.Clone()
		if !b.EqualTo(c) {
			t.Fatalf("%T clone not equal to original", b)
		}
		c.FlipBit(5)
		if b.EqualTo(c) {
			t.Fatalf("%T clone shares storage with original", b)
		}
	}
}

func TestCopyFromRoundTrip(t *testing.T) {
	r := xrand.New(2)
	for _, b := range allKinds(16) {
		fill(b, r)
		dst := b.Clone()
		dst.FlipBit(100)
		if dst.EqualTo(b) {
			t.Fatalf("%T FlipBit had no effect", b)
		}
		if err := dst.CopyFrom(b); err != nil {
			t.Fatalf("%T CopyFrom: %v", b, err)
		}
		if !dst.EqualTo(b) {
			t.Fatalf("%T CopyFrom did not restore equality", b)
		}
	}
}

func TestCopyFromTypeMismatch(t *testing.T) {
	if err := NewF64(4).CopyFrom(NewU8(32)); err == nil {
		t.Fatal("expected type-mismatch error")
	}
	if err := NewU8(4).CopyFrom(NewU8(5)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if err := NewC128(4).CopyFrom(NewF64(8)); err == nil {
		t.Fatal("expected type-mismatch error")
	}
}

func TestEqualToCrossType(t *testing.T) {
	if NewF64(8).EqualTo(NewU8(64)) {
		t.Fatal("buffers of different types must not compare equal")
	}
	if NewF64(8).EqualTo(NewF64(9)) {
		t.Fatal("buffers of different lengths must not compare equal")
	}
}

func TestFlipBitIsInvolution(t *testing.T) {
	r := xrand.New(3)
	for _, b := range allKinds(32) {
		fill(b, r)
		orig := b.Clone()
		for trial := 0; trial < 50; trial++ {
			i := r.Int63n(b.BitLen())
			b.FlipBit(i)
			if b.EqualTo(orig) {
				t.Fatalf("%T flip of bit %d undetectable", b, i)
			}
			b.FlipBit(i)
			if !b.EqualTo(orig) {
				t.Fatalf("%T double flip of bit %d not identity", b, i)
			}
		}
	}
}

func TestFlipBitEveryPosition(t *testing.T) {
	// Every bit position must be independently flippable and detectable.
	for _, b := range allKinds(3) {
		orig := b.Clone()
		for i := int64(0); i < b.BitLen(); i++ {
			b.FlipBit(i)
			if b.EqualTo(orig) {
				t.Fatalf("%T bit %d flip not detected", b, i)
			}
			b.FlipBit(i)
		}
		if !b.EqualTo(orig) {
			t.Fatalf("%T not restored after full sweep", b)
		}
	}
}

func TestF64NaNBitwiseSemantics(t *testing.T) {
	nan1 := math.Float64frombits(0x7FF8000000000001)
	nan2 := math.Float64frombits(0x7FF8000000000002)
	a := F64{nan1}
	b := F64{nan1}
	c := F64{nan2}
	if !a.EqualTo(b) {
		t.Fatal("identical NaN bit patterns must compare equal")
	}
	if a.EqualTo(c) {
		t.Fatal("different NaN payloads must not compare equal")
	}
	// Signed zeros differ bitwise.
	z := F64{0.0}
	nz := F64{math.Copysign(0, -1)}
	if z.EqualTo(nz) {
		t.Fatal("+0 and -0 must not compare equal bitwise")
	}
}

func TestTotalBytesAndBits(t *testing.T) {
	bufs := []Buffer{NewF64(4), NewU8(4), nil, NewC128(1)}
	if got := TotalBytes(bufs...); got != 32+4+16 {
		t.Fatalf("TotalBytes = %d", got)
	}
	if got := TotalBits(bufs...); got != (32+4+16)*8 {
		t.Fatalf("TotalBits = %d", got)
	}
}

func TestPropertyCloneEqualAfterRandomWrites(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		r := xrand.New(seed)
		b := NewF64(size)
		fill(b, r)
		c := b.Clone().(F64)
		if !b.EqualTo(c) {
			return false
		}
		// Mutating the original must not affect the clone.
		b[r.Intn(size)] += 1
		return !b.EqualTo(c) || b[0] == c[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEqualToF64_4K(b *testing.B) {
	r := xrand.New(1)
	x := NewF64(4096)
	fill(x, r)
	y := x.Clone()
	b.SetBytes(x.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.EqualTo(y) {
			b.Fatal("unexpected mismatch")
		}
	}
}

func BenchmarkCloneF64_4K(b *testing.B) {
	x := NewF64(4096)
	b.SetBytes(x.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Clone()
	}
}
