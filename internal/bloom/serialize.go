package bloom

import (
	"encoding/binary"

	"learnedindex/internal/binenc"
)

// Filter serialization: header fields (m, k, n) as varints followed by the
// raw bit array, little-endian word by word. Nothing reads it back any
// more; the format is pinned (TestFilterGoldenFormat) because the segment
// files of earlier versions carry it and their decoder skips it.

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
