// Package buffer defines the typed data buffers that task arguments are made
// of. The replication engine (internal/rt) needs three capabilities from every
// task argument, independent of its element type:
//
//   - checkpointing: deep-copy the buffer into safe memory and restore it
//     (paper §III step 1 and step 4);
//   - comparison: bitwise equality between the outputs of a task and its
//     replica (paper §III step 3), which is also what the majority vote
//     counts agreement by;
//   - fault injection: flipping an arbitrary bit, which is how the injector
//     models a silent data corruption in an output argument.
//
// Buffer captures exactly those capabilities. The concrete element types
// (F64, C128, U8) are thin named slice types so numeric kernels can use
// them directly without conversion.
package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ErrCopy is the sentinel wrapped by every CopyFrom mismatch (wrong
// concrete type or length), so callers can errors.Is a failed restore
// without matching message text.
var ErrCopy = errors.New("buffer: CopyFrom mismatch")

// Buffer is a checkpointable, comparable, corruptible region of task data.
// All implementations in this package have value semantics on the slice
// header and reference semantics on the backing array, like ordinary slices.
type Buffer interface {
	// SizeBytes returns the payload size in bytes. Task failure rates are
	// estimated proportionally to the sum of argument sizes (paper §IV-A).
	SizeBytes() int64
	// Clone returns a deep copy with fresh backing storage.
	Clone() Buffer
	// CopyFrom overwrites the receiver's contents with src's. It returns an
	// error if src has a different concrete type or length.
	CopyFrom(src Buffer) error
	// EqualTo reports bitwise equality with other. Two NaNs with identical
	// bit patterns compare equal; NaNs with different payloads do not —
	// this matches the paper's bitwise comparator.
	EqualTo(other Buffer) bool
	// BitLen returns the number of payload bits (fault-injection surface).
	BitLen() int64
	// FlipBit inverts bit i (0 <= i < BitLen). Used by the SDC injector.
	FlipBit(i int64)
}

// F64 is a []float64 buffer.
type F64 []float64

// NewF64 allocates a zeroed F64 buffer of n elements.
func NewF64(n int) F64 { return make(F64, n) }

// SizeBytes implements Buffer.
func (b F64) SizeBytes() int64 { return int64(len(b)) * 8 }

// BitLen implements Buffer.
func (b F64) BitLen() int64 { return int64(len(b)) * 64 }

// Clone implements Buffer.
func (b F64) Clone() Buffer {
	c := make(F64, len(b))
	copy(c, b)
	return c
}

// CopyFrom implements Buffer.
func (b F64) CopyFrom(src Buffer) error {
	s, ok := src.(F64)
	if !ok {
		return fmt.Errorf("buffer: CopyFrom type mismatch: F64 <- %T: %w", src, ErrCopy)
	}
	if len(s) != len(b) {
		return fmt.Errorf("buffer: CopyFrom length mismatch: %d <- %d: %w", len(b), len(s), ErrCopy)
	}
	copy(b, s)
	return nil
}

// EqualTo implements Buffer by comparing the two slices' memory byte for
// byte, which is bit-pattern equality: identical NaNs compare equal and
// -0 != +0 is detected, as a hardware comparator would.
func (b F64) EqualTo(other Buffer) bool {
	o, ok := other.(F64)
	return ok && bytes.Equal(asBytes(b), asBytes(o))
}

// FlipBit implements Buffer.
func (b F64) FlipBit(i int64) {
	idx, bit := i/64, uint(i%64)
	b[idx] = math.Float64frombits(math.Float64bits(b[idx]) ^ (1 << bit))
}

// C128 is a []complex128 buffer.
type C128 []complex128

// NewC128 allocates a zeroed C128 buffer of n elements.
func NewC128(n int) C128 { return make(C128, n) }

// SizeBytes implements Buffer.
func (b C128) SizeBytes() int64 { return int64(len(b)) * 16 }

// BitLen implements Buffer.
func (b C128) BitLen() int64 { return int64(len(b)) * 128 }

// Clone implements Buffer.
func (b C128) Clone() Buffer {
	c := make(C128, len(b))
	copy(c, b)
	return c
}

// CopyFrom implements Buffer.
func (b C128) CopyFrom(src Buffer) error {
	s, ok := src.(C128)
	if !ok {
		return fmt.Errorf("buffer: CopyFrom type mismatch: C128 <- %T: %w", src, ErrCopy)
	}
	if len(s) != len(b) {
		return fmt.Errorf("buffer: CopyFrom length mismatch: %d <- %d: %w", len(b), len(s), ErrCopy)
	}
	copy(b, s)
	return nil
}

// EqualTo implements Buffer as F64's does.
func (b C128) EqualTo(other Buffer) bool {
	o, ok := other.(C128)
	return ok && bytes.Equal(asBytes(b), asBytes(o))
}

// FlipBit implements Buffer.
func (b C128) FlipBit(i int64) {
	idx, rem := i/128, i%128
	re, im := math.Float64bits(real(b[idx])), math.Float64bits(imag(b[idx]))
	if rem < 64 {
		re ^= 1 << uint(rem)
	} else {
		im ^= 1 << uint(rem-64)
	}
	b[idx] = complex(math.Float64frombits(re), math.Float64frombits(im))
}

// U8 is a []uint8 buffer (pixel arrays, raw images).
type U8 []uint8

// NewU8 allocates a zeroed U8 buffer of n elements.
func NewU8(n int) U8 { return make(U8, n) }

// SizeBytes implements Buffer.
func (b U8) SizeBytes() int64 { return int64(len(b)) }

// BitLen implements Buffer.
func (b U8) BitLen() int64 { return int64(len(b)) * 8 }

// Clone implements Buffer.
func (b U8) Clone() Buffer {
	c := make(U8, len(b))
	copy(c, b)
	return c
}

// CopyFrom implements Buffer.
func (b U8) CopyFrom(src Buffer) error {
	s, ok := src.(U8)
	if !ok {
		return fmt.Errorf("buffer: CopyFrom type mismatch: U8 <- %T: %w", src, ErrCopy)
	}
	if len(s) != len(b) {
		return fmt.Errorf("buffer: CopyFrom length mismatch: %d <- %d: %w", len(b), len(s), ErrCopy)
	}
	copy(b, s)
	return nil
}

// EqualTo implements Buffer.
func (b U8) EqualTo(other Buffer) bool {
	o, ok := other.(U8)
	return ok && bytes.Equal(b, o)
}

// FlipBit implements Buffer.
func (b U8) FlipBit(i int64) {
	idx, bit := i/8, uint(i%8)
	b[idx] ^= 1 << bit
}

// asBytes views a slice's memory as bytes, so that EqualTo runs the
// runtime's vectorised memequal instead of an element loop.
func asBytes[E float64 | complex128](s []E) []byte {
	// unsafe: a read-only byte view of plain float memory, never retained.
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// TotalBits sums the bit lengths of bufs (the SDC injection surface).
func TotalBits(bufs ...Buffer) int64 {
	var n int64
	for _, b := range bufs {
		if b != nil {
			n += b.BitLen()
		}
	}
	return n
}
