package vote

import (
	"testing"

	"appfit/internal/buffer"
	"appfit/internal/xrand"
)

func mk(vals ...float64) []buffer.Buffer {
	b := buffer.F64(vals)
	return []buffer.Buffer{b}
}

func mkRand(seed uint64, n int) []buffer.Buffer {
	r := xrand.New(seed)
	b := buffer.NewF64(n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return []buffer.Buffer{b}
}

func clone(bs []buffer.Buffer) []buffer.Buffer {
	out := make([]buffer.Buffer, len(bs))
	for i, b := range bs {
		out[i] = b.Clone()
	}
	return out
}

func TestBitwiseEqual(t *testing.T) {
	a := mkRand(1, 128)
	b := clone(a)
	if !(Bitwise{}).Equal(a, b) {
		t.Fatal("identical outputs must compare equal")
	}
	b[0].FlipBit(1000)
	if (Bitwise{}).Equal(a, b) {
		t.Fatal("single-bit flip must be detected")
	}
}

func TestBitwiseShapeMismatch(t *testing.T) {
	if (Bitwise{}).Equal(mk(1, 2), append(mk(1, 2), buffer.NewF64(1))) {
		t.Fatal("different arities must not compare equal")
	}
}

func TestComparatorNames(t *testing.T) {
	if (Bitwise{}).Name() != "bitwise" {
		t.Fatal("bad name")
	}
}

func TestMajorityAllAgree(t *testing.T) {
	a := mkRand(3, 64)
	idx, err := Majority2of3(Bitwise{}, a, clone(a), clone(a))
	if err != nil || idx != 0 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
}

func TestMajorityPrimaryCorrupted(t *testing.T) {
	good := mkRand(4, 64)
	bad := clone(good)
	bad[0].FlipBit(3)
	// r0 corrupted, r1 and r2 agree → index 1.
	idx, err := Majority2of3(Bitwise{}, bad, clone(good), clone(good))
	if err != nil || idx != 1 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
}

func TestMajorityReplicaCorrupted(t *testing.T) {
	good := mkRand(5, 64)
	bad := clone(good)
	bad[0].FlipBit(9)
	// r1 corrupted, r0 and r2 agree → index 0.
	idx, err := Majority2of3(Bitwise{}, clone(good), bad, clone(good))
	if err != nil || idx != 0 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
}

func TestMajorityReexecCorrupted(t *testing.T) {
	good := mkRand(6, 64)
	bad := clone(good)
	bad[0].FlipBit(100)
	// r2 corrupted, r0 and r1 agree → index 0.
	idx, err := Majority2of3(Bitwise{}, clone(good), clone(good), bad)
	if err != nil || idx != 0 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
}

func TestMajorityNoMajority(t *testing.T) {
	a, b, c := mkRand(7, 64), mkRand(7, 64), mkRand(7, 64)
	b[0].FlipBit(1)
	c[0].FlipBit(2)
	idx, err := Majority2of3(Bitwise{}, a, b, c)
	if idx != -1 || err == nil {
		t.Fatalf("expected no-majority, got idx=%d err=%v", idx, err)
	}
	if !IsNoMajority(err) {
		t.Fatal("IsNoMajority must recognize the error")
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
	if IsNoMajority(nil) {
		t.Fatal("nil is not a no-majority error")
	}
}

func BenchmarkBitwise4K(b *testing.B) {
	a := mkRand(1, 4096)
	c := clone(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bitwise{}.Equal(a, c)
	}
}
