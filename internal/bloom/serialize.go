package bloom

import (
	"encoding/binary"

	"learnedindex/internal/binenc"
)

// Filter serialization: header fields (m, k, n) as varints followed by the
// raw bit array, little-endian word by word.

// AppendBinary appends the filter's encoding to b.
func (f *Filter) AppendBinary(b []byte) []byte {
	b = binenc.AppendUvarint(b, f.m)
	b = binenc.AppendUvarint(b, uint64(f.k))
	b = binenc.AppendUvarint(b, uint64(f.n))
	for _, w := range f.bits {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// EncodedLen returns len(f.AppendBinary(nil)) without encoding, so a caller
// framing the filter as a length-prefixed block can size its buffer once
// and encode in place.
func (f *Filter) EncodedLen() int {
	return binenc.UvarintLen(f.m) + binenc.UvarintLen(uint64(f.k)) + binenc.UvarintLen(uint64(f.n)) + 8*len(f.bits)
}

// Decode reads one filter from r, validating that the bit array matches m
// exactly; corrupt input yields an error, never a panic. The
// register-blocked layout older segment files carry began with the small
// tag 1 where m stands, so it is rejected as an m below 64.
func Decode(r *binenc.Reader) (*Filter, error) {
	m := r.Uvarint()
	k := r.Uvarint()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// NewWithSize clamps m < 64 and k < 1; an encoding violating either, or
	// implying more words than the input holds, is corrupt. The upper
	// bound on m keeps (m+63)/64 from wrapping (a near-2^64 m would yield
	// zero words, and the accepted filter would index past its bit array
	// on the first query).
	if m < 64 || m > 1<<48 || k < 1 || k > 1<<16 || n > 1<<40 {
		return nil, binenc.ErrCorrupt
	}
	words := int((m + 63) / 64)
	if r.Remaining() < words*8 {
		return nil, binenc.ErrCorrupt
	}
	f := &Filter{bits: make([]uint64, words), m: m, k: int(k), n: int(n)}
	for i := range f.bits {
		f.bits[i] = r.U64()
	}
	return f, r.Err()
}
