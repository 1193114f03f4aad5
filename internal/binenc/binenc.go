// Package binenc is the little-endian binary codec shared by every
// serialized structure in the repo (ml models, RMIs, Bloom filters, segment
// files, WAL records, wire messages). It is deliberately tiny: varints for
// counts, zigzag varints for signed ints, fixed 8-byte IEEE floats,
// length-prefixed byte blocks, and the count-prefixed key payloads of the
// WAL and both wires.
//
// Decoding is panic-free by construction: Reader latches the first error
// (truncated input, malformed varint, oversized block) and every subsequent
// read returns a zero value, so decoders can read a whole structure and
// check Err once — corrupt bytes fall out as an error, never a panic. This
// is the property the storage fuzz tests (FuzzSegmentDecode, FuzzWALReplay)
// lean on.
package binenc

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
)

// ErrCorrupt is the latched decode error for any malformed input.
var ErrCorrupt = errors.New("binenc: corrupt or truncated input")

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// UvarintLen is the number of bytes AppendUvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendF64 appends f as 8 little-endian IEEE-754 bytes.
func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendF64s appends a count-prefixed float64 slice.
func AppendF64s(b []byte, fs []float64) []byte {
	b = AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = AppendF64(b, f)
	}
	return b
}

// AppendBytes appends a length-prefixed byte block.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUvarints appends the key payload of uint64 keys — a uvarint count,
// then every key as a uvarint — holding the keys of all lists in order: a
// WAL record, a replication frame or a request's key set. Uvarints reads it.
func AppendUvarints(b []byte, lists ...[]uint64) []byte {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	b = AppendUvarint(b, uint64(n))
	for _, l := range lists {
		for _, v := range l {
			b = AppendUvarint(b, v)
		}
	}
	return b
}

// AppendStrings is AppendUvarints for string keys: a uvarint count, then
// every key as a length-prefixed byte block. Strings reads it.
func AppendStrings(b []byte, lists ...[]string) []byte {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	b = AppendUvarint(b, uint64(n))
	for _, l := range lists {
		for _, s := range l {
			b = AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
	}
	return b
}

// Reader decodes a byte slice with error latching: after the first
// malformed read every method returns zero values and Err reports failure.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the latched decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Rest returns the undecoded bytes without consuming them, sharing the
// underlying array.
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// fail latches the corrupt-input error.
func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Count reads an unsigned varint and validates it as an element count no
// larger than max and no larger than the remaining bytes divided by
// elemBytes (so a hostile count can never trigger an oversized allocation).
func (r *Reader) Count(max, elemBytes int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if v > uint64(max) || v > uint64(r.Remaining()/elemBytes) {
		r.fail()
		return 0
	}
	return int(v)
}

// F64 reads 8 little-endian bytes as a float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// U64 reads 8 little-endian bytes as a uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64s reads a count-prefixed float64 slice (nil when empty).
func (r *Reader) F64s(max int) []float64 {
	n := r.Count(max, 8)
	if r.err != nil || n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.F64()
	}
	return fs
}

// Take reads exactly n raw bytes (no length prefix), sharing the
// underlying array. Negative n or n beyond the remaining bytes latches
// the corrupt-input error.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// Bytes reads a length-prefixed byte block, sharing the underlying array.
func (r *Reader) Bytes() []byte {
	n := r.Count(len(r.b), 1)
	if r.err != nil {
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// Bool reads one byte written by AppendBool; any other value is corrupt.
func (r *Reader) Bool() bool {
	p := r.Take(1)
	if r.err == nil && p[0] > 1 {
		r.fail()
	}
	return r.err == nil && p[0] == 1
}

// Uvarints reads a key payload written by AppendUvarints and appends its
// keys to dst. A count above max, or above what the remaining bytes can
// hold, latches the error before anything is allocated; on any error the
// appended keys are meaningless.
func (r *Reader) Uvarints(dst []uint64, max int) []uint64 {
	n := r.Count(max, 1)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Uvarint())
	}
	return dst
}

// Strings is Uvarints for a payload written by AppendStrings. Every key is
// its own copy: keeping one never pins the input or another key.
func (r *Reader) Strings(dst []string, max int) []string {
	n := r.Count(max, 1)
	dst = slices.Grow(dst, n)
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, string(r.Bytes()))
	}
	return dst
}
