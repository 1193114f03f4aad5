package bloom

import (
	"encoding/binary"

	"learnedindex/internal/binenc"
)

// Filter serialization: header fields (m, k, n) as varints followed by the
// raw bit array, little-endian word by word. Stored per segment in the
// persistent storage engine so a cold open can answer negative lookups
// without touching the key block (§5's existence-index role, applied as
// per-segment read pruning).
//
// Layout versioning is backward-compatible: a legacy (standard-layout)
// filter's first varint is m, which NewWithSize and Decode both pin to
// >= 64 — so the small value blockedFormatTag can never be a legacy m and
// safely marks the register-blocked layout (tag, then m, k, n, words).
// Old segment files keep decoding as standard filters bit-for-bit.

// blockedFormatTag introduces a register-blocked filter encoding.
const blockedFormatTag = 1

// AppendBinary appends the filter's encoding to b.
func (f *Filter) AppendBinary(b []byte) []byte {
	if f.blocked {
		b = binenc.AppendUvarint(b, blockedFormatTag)
	}
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
	n := binenc.UvarintLen(f.m) + binenc.UvarintLen(uint64(f.k)) + binenc.UvarintLen(uint64(f.n)) + 8*len(f.bits)
	if f.blocked {
		n += binenc.UvarintLen(blockedFormatTag)
	}
	return n
}

// Decode reads one filter from r, validating that the bit array matches m
// exactly; corrupt input yields an error, never a panic.
func Decode(r *binenc.Reader) (*Filter, error) {
	m := r.Uvarint()
	blocked := false
	if m == blockedFormatTag {
		blocked = true
		m = r.Uvarint()
	}
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
	// A blocked filter's probe math requires whole cache-line blocks and
	// the 9-bit-lane k cap; anything else would index past the block.
	if blocked && (m%blockBits != 0 || k > maxBlockedK) {
		return nil, binenc.ErrCorrupt
	}
	words := int((m + 63) / 64)
	if r.Remaining() < words*8 {
		return nil, binenc.ErrCorrupt
	}
	f := &Filter{bits: make([]uint64, words), m: m, k: int(k), n: int(n), blocked: blocked}
	for i := range f.bits {
		f.bits[i] = r.U64()
	}
	return f, r.Err()
}
