package buffer

import (
	"encoding/binary"
	"math"
	"testing"

	"appfit/internal/xrand"
)

// refEqual is the element-wise bit-pattern comparison EqualTo is held to:
// same kind, same length and the same math.Float64bits (or byte) at every
// position.
func refEqual(a, b Buffer) bool {
	switch x := a.(type) {
	case F64:
		y, ok := b.(F64)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case C128:
		y, ok := b.(C128)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(real(x[i])) != math.Float64bits(real(y[i])) ||
				math.Float64bits(imag(x[i])) != math.Float64bits(imag(y[i])) {
				return false
			}
		}
		return true
	case U8:
		y, ok := b.(U8)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return false
}

// checkEqual fails t unless a.EqualTo(b) and b.EqualTo(a) both agree with
// the reference.
func checkEqual(t *testing.T, name string, a, b Buffer) {
	t.Helper()
	want := refEqual(a, b)
	if got := a.EqualTo(b); got != want {
		t.Errorf("%s: %T.EqualTo(%T) = %v, reference %v", name, a, b, got, want)
	}
	if b == nil {
		return
	}
	if got, rev := b.EqualTo(a), refEqual(b, a); got != rev {
		t.Errorf("%s: %T.EqualTo(%T) = %v, reference %v", name, b, a, got, rev)
	}
}

// TestEqualToEveryBitFlip flips every bit of a small buffer of each kind,
// one at a time, and holds EqualTo to the reference on each.
func TestEqualToEveryBitFlip(t *testing.T) {
	r := xrand.New(7)
	for _, b := range allKinds(5) {
		fill(b, r)
		c := b.Clone()
		checkEqual(t, "clone", b, c)
		for i := int64(0); i < c.BitLen(); i++ {
			c.FlipBit(i)
			if b.EqualTo(c) || c.EqualTo(b) {
				t.Fatalf("%T: flip of bit %d compares equal", b, i)
			}
			checkEqual(t, "flipped", b, c)
			c.FlipBit(i)
		}
		checkEqual(t, "restored", b, c)
	}
}

// foreign is a Buffer of no kind this package defines, with an F64 inside.
type foreign struct{ F64 }

func (foreign) EqualTo(Buffer) bool { return false }

// TestEqualToEdgeCases holds EqualTo to the reference on NaN payloads,
// signed zeros, empty and nil slices, length mismatches, cross-kind pairs
// of equal byte length and a foreign Buffer.
func TestEqualToEdgeCases(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8_0000_0000_0001)
	nan2 := math.Float64frombits(0x7ff8_0000_0000_0002)
	snan := math.Float64frombits(0x7ff0_0000_0000_0001)
	negz := math.Copysign(0, -1)
	cases := []struct {
		name string
		a, b Buffer
		want bool
	}{
		{"f64 same NaN payload", F64{1, nan1}, F64{1, nan1}, true},
		{"f64 different NaN payloads", F64{nan1}, F64{nan2}, false},
		{"f64 signalling NaN", F64{snan}, F64{snan}, true},
		{"f64 +0/-0", F64{0}, F64{negz}, false},
		{"c128 same NaN payload", C128{complex(nan1, 0)}, C128{complex(nan1, 0)}, true},
		{"c128 different NaN payloads", C128{complex(0, nan1)}, C128{complex(0, nan2)}, false},
		{"c128 +0/-0 imaginary", C128{complex(1, 0)}, C128{complex(1, negz)}, false},
		{"f64 empty", F64{}, F64(nil), true},
		{"c128 empty", C128{}, C128(nil), true},
		{"u8 empty", U8{}, U8(nil), true},
		{"f64 length", F64{1, 2}, F64{1, 2, 0}, false},
		{"c128 length", C128{1}, C128{1, 0}, false},
		{"u8 length", U8{1}, U8{1, 0}, false},
		{"u8 differs", U8{1, 2, 3}, U8{1, 2, 4}, false},
		{"f64 vs c128, 16 zero bytes", NewF64(2), NewC128(1), false},
		{"f64 vs u8, 16 zero bytes", NewF64(2), NewU8(16), false},
		{"c128 vs u8, 16 zero bytes", NewC128(1), NewU8(16), false},
		{"empty f64 vs empty u8", F64{}, U8{}, false},
		{"f64 vs foreign", F64{1}, foreign{F64{1}}, false},
		{"f64 vs nil", F64{}, nil, false},
	}
	for _, c := range cases {
		if got := c.a.EqualTo(c.b); got != c.want {
			t.Errorf("%s: EqualTo = %v, want %v", c.name, got, c.want)
		}
		checkEqual(t, c.name, c.a, c.b)
	}
}

// asKinds reinterprets raw bytes as each buffer kind, dropping a trailing
// partial element.
func asKinds(raw []byte) []Buffer {
	f := make(F64, len(raw)/8)
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	c := make(C128, len(raw)/16)
	for i := range c {
		c[i] = complex(f[2*i], f[2*i+1])
	}
	return []Buffer{f, c, U8(raw)}
}

// FuzzEqualTo reinterprets two byte strings as each buffer kind and holds
// EqualTo, within and across kinds, to the element-wise bit reference.
func FuzzEqualTo(f *testing.F) {
	nan := binary.LittleEndian.AppendUint64(nil, 0x7ff8_0000_0000_0001)
	f.Add(nan, nan)
	f.Add(nan, binary.LittleEndian.AppendUint64(nil, 0x7ff8_0000_0000_0002))
	f.Add(binary.LittleEndian.AppendUint64(nil, 0), binary.LittleEndian.AppendUint64(nil, 1<<63))
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 16), make([]byte, 24))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		as, bs := asKinds(a), asKinds(b)
		for _, x := range as {
			checkEqual(t, "self", x, x.Clone())
			for _, y := range bs {
				checkEqual(t, "pair", x, y)
			}
		}
	})
}
