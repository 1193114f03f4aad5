// Package keycodec is the order-preserving key codec that generalizes the
// learned-index stack from uint64 keys to string (and composite) keys
// (§3.5's string experiments, made to flow through the whole serve/storage/
// scan stack instead of living in a dead-end StringRMI).
//
// The codec splits a string key into two parts:
//
//   - a fixed-width uint64 *prefix* — the key's first 8 bytes packed
//     big-endian (zero-padded) — which is order-preserving: for any keys
//     a < b (bytes order), Prefix(a) <= Prefix(b), and Prefix(a) < Prefix(b)
//     implies a < b. Every uint64-native layer (RMI training and compiled
//     plans, shard range-splitting, segment fences, Bloom pre-filters,
//     delta-varint key blocks) operates on prefixes unchanged;
//
//   - a per-segment suffix *dictionary* (Dict) holding the exact keys in
//     sorted order, grouped by prefix, for disambiguation when prefixes
//     collide (keys sharing their first 8 bytes, or short keys whose
//     zero-padded prefixes coincide). The dictionary's on-disk form stores
//     each key's length plus only the bytes beyond the prefix, so long keys
//     don't pay their first 8 bytes twice.
//
// A lookup routes through both: the prefix enters the uint64 machinery
// (model inference, fences, filters), and on a prefix hit the dictionary's
// collision directory narrows to the group of keys sharing that prefix,
// where the last-mile tie-break runs over exact strings (see
// core.StringIndex, which revives StringRMI/stringsearch for that step).
//
// Composite keys (Datomic-style entity/attribute tuples) enter the same
// pipeline via Composite: an escaped concatenation whose bytewise order
// equals element-wise tuple order, so a composite key is just a string key
// with structure — its first components dominate the prefix, which is
// exactly the shared-prefix clustering the dictionary exists to absorb.
package keycodec

import (
	"fmt"
	"sort"
	"strings"

	"learnedindex/internal/binenc"
)

// PrefixLen is how many leading key bytes the fixed-width prefix captures.
const PrefixLen = 8

// Prefix packs the first 8 bytes of s big-endian into a uint64, zero-padded
// for shorter keys. It is order-preserving: a <= b (bytes order) implies
// Prefix(a) <= Prefix(b). Keys sharing their first 8 bytes — and short keys
// that differ only by trailing NULs from the padding — collide; the Dict
// disambiguates those exactly.
func Prefix(s string) uint64 {
	var v uint64
	n := len(s)
	if n > PrefixLen {
		n = PrefixLen
	}
	for i := 0; i < n; i++ {
		v |= uint64(s[i]) << (56 - 8*uint(i))
	}
	return v
}

// prefixBytes writes p's big-endian bytes into an 8-byte array.
func prefixBytes(p uint64) [PrefixLen]byte {
	var b [PrefixLen]byte
	for i := 0; i < PrefixLen; i++ {
		b[i] = byte(p >> (56 - 8*uint(i)))
	}
	return b
}

// Composite escape bytes: a 0x00 inside a component is escaped to
// 0x00 0xFF, and each component is terminated by 0x00 0x01. Bytewise
// comparison of encodings then equals element-wise tuple comparison
// (with a shorter tuple sorting before its extensions), because at the
// first difference either the raw bytes differ, or one side holds the
// terminator 0x01 — which is below every escaped continuation (0xFF) and
// every raw non-NUL byte.
const (
	compEscape = 0xFF
	compTerm   = 0x01
)

// AppendComposite appends the order-preserving encoding of parts to dst.
func AppendComposite(dst []byte, parts ...string) []byte {
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			c := p[i]
			dst = append(dst, c)
			if c == 0x00 {
				dst = append(dst, compEscape)
			}
		}
		dst = append(dst, 0x00, compTerm)
	}
	return dst
}

// Composite returns the order-preserving encoding of parts as a string key:
// Composite(a...) < Composite(b...) (bytes order) iff tuple a < tuple b
// element-wise. The result flows through the stack like any string key.
func Composite(parts ...string) string {
	return string(AppendComposite(nil, parts...))
}

// SplitComposite decodes a Composite encoding back into its parts.
func SplitComposite(key string) ([]string, error) {
	var parts []string
	var cur strings.Builder
	i := 0
	for i < len(key) {
		c := key[i]
		if c != 0x00 {
			cur.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(key) {
			return nil, fmt.Errorf("keycodec: truncated composite escape")
		}
		switch key[i+1] {
		case compEscape:
			cur.WriteByte(0x00)
		case compTerm:
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			return nil, fmt.Errorf("keycodec: invalid composite escape 0x%02x", key[i+1])
		}
		i += 2
	}
	if cur.Len() != 0 {
		return nil, fmt.Errorf("keycodec: composite key missing terminator")
	}
	return parts, nil
}

// Dict is the exact-key side of the codec: a segment's (or shard
// snapshot's) sorted unique string keys plus a sparse collision directory
// mapping each *prefix rank* to its run of keys. Most prefixes own exactly
// one key, so the directory records only the exceptions: the prefix indexes
// whose group holds more than one key, with cumulative extras so rank
// arithmetic stays O(log collisions).
//
// A Dict is immutable after Build/Decode and safe for concurrent readers.
type Dict struct {
	strs []string // all keys, sorted ascending (bytes order)
	// Sparse collision directory over prefix indexes. collIdx lists, in
	// increasing order, the prefix indexes whose group size exceeds 1;
	// collCum[j] is the total extra keys (group size - 1 summed) owned by
	// collIdx[:j], so collCum has len(collIdx)+1 entries with collCum[0]=0.
	collIdx  []int32
	collCum  []int32
	maxGroup int
}

// BuildDict derives the codec pair from sorted unique keys: the sorted
// deduplicated prefix array (the uint64 layer's key set) and the dictionary
// over the exact keys. The keys slice is retained, not copied.
func BuildDict(keys []string) ([]uint64, *Dict) {
	prefixes := make([]uint64, 0, len(keys))
	d := &Dict{strs: keys, maxGroup: 0}
	var cum int32
	d.collCum = append(d.collCum, 0)
	for i := 0; i < len(keys); {
		p := Prefix(keys[i])
		j := i + 1
		for j < len(keys) && Prefix(keys[j]) == p {
			j++
		}
		if g := j - i; g > 1 {
			d.collIdx = append(d.collIdx, int32(len(prefixes)))
			cum += int32(g - 1)
			d.collCum = append(d.collCum, cum)
			if g > d.maxGroup {
				d.maxGroup = g
			}
		} else if d.maxGroup == 0 {
			d.maxGroup = 1
		}
		prefixes = append(prefixes, p)
		i = j
	}
	return prefixes, d
}

// Len returns the number of keys.
func (d *Dict) Len() int { return len(d.strs) }

// Strings returns the sorted keys. Shared, read-only.
func (d *Dict) Strings() []string { return d.strs }

// NumCollisions returns how many keys share a prefix with an earlier key —
// Len() minus the prefix count.
func (d *Dict) NumCollisions() int {
	return int(d.collCum[len(d.collCum)-1])
}

// MaxGroup returns the largest number of keys sharing one prefix.
func (d *Dict) MaxGroup() int { return d.maxGroup }

// Start returns the index into Strings() of the first key whose prefix rank
// is pi. pi may equal the prefix count, yielding Len(). This is the rank
// bridge between the uint64 layer and the exact keys: a prefix-plan lower
// bound pi becomes the string lower bound Start(pi) when the probe's prefix
// is absent, and the group [Start(pi), Start(pi+1)) when present.
func (d *Dict) Start(pi int) int {
	j := sort.Search(len(d.collIdx), func(k int) bool { return d.collIdx[k] >= int32(pi) })
	return pi + int(d.collCum[j])
}

// Group returns the [start, end) string range of prefix rank pi.
func (d *Dict) Group(pi int) (int, int) {
	return d.Start(pi), d.Start(pi + 1)
}

// AppendBinary appends the dictionary's serialized form: the collision
// directory plus the suffix blob — for every key, its full length L and
// only the bytes beyond the 8-byte prefix (max(0, L-8) of them), since the
// prefix array already pins the leading bytes (and, with L, the exact
// short-key padding).
func (d *Dict) AppendBinary(b []byte) []byte {
	b = binenc.AppendUvarint(b, uint64(len(d.strs)))
	b = binenc.AppendUvarint(b, uint64(len(d.collIdx)))
	prev := int32(-1)
	for j, ci := range d.collIdx {
		b = binenc.AppendUvarint(b, uint64(ci-prev)) // strictly positive delta
		b = binenc.AppendUvarint(b, uint64(d.collCum[j+1]-d.collCum[j]))
		prev = ci
	}
	for _, s := range d.strs {
		b = binenc.AppendUvarint(b, uint64(len(s)))
		if len(s) > PrefixLen {
			b = append(b, s[PrefixLen:]...)
		}
	}
	return b
}

// EncodedLen returns len(d.AppendBinary(nil)) without encoding, so a caller
// framing the dictionary as a length-prefixed block can size its buffer
// once and encode in place.
func (d *Dict) EncodedLen() int {
	n := binenc.UvarintLen(uint64(len(d.strs))) + binenc.UvarintLen(uint64(len(d.collIdx)))
	prev := int32(-1)
	for j, ci := range d.collIdx {
		n += binenc.UvarintLen(uint64(ci-prev)) + binenc.UvarintLen(uint64(d.collCum[j+1]-d.collCum[j]))
		prev = ci
	}
	for _, s := range d.strs {
		n += binenc.UvarintLen(uint64(len(s))) + max(0, len(s)-PrefixLen)
	}
	return n
}

// DecodeDict decodes a dictionary serialized by AppendBinary against the
// already-decoded prefix array, reconstructing and validating the exact
// keys: every key's prefix must match its group's, the keys must be
// strictly increasing, and the directory must tile the prefix array
// exactly. Arbitrary input yields an error, never a panic — decode state
// flows through the latched binenc.Reader and explicit bounds checks.
func DecodeDict(r *binenc.Reader, prefixes []uint64) (*Dict, error) {
	nStr := r.Count(int(^uint(0)>>1), 1)
	nColl := r.Count(len(prefixes)+1, 1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	d := &Dict{
		collIdx: make([]int32, 0, nColl),
		collCum: make([]int32, 1, nColl+1),
	}
	prev := int32(-1)
	var cum int32
	for j := 0; j < nColl; j++ {
		dlt := r.Uvarint()
		extra := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		ci := int64(prev) + int64(dlt)
		if dlt < 1 || extra < 1 || ci >= int64(len(prefixes)) || int64(extra) > int64(nStr) {
			return nil, fmt.Errorf("keycodec: corrupt collision directory: %w", binenc.ErrCorrupt)
		}
		prev = int32(ci)
		cum += int32(extra)
		if int64(cum) > int64(nStr) {
			return nil, fmt.Errorf("keycodec: collision extras exceed key count: %w", binenc.ErrCorrupt)
		}
		d.collIdx = append(d.collIdx, prev)
		d.collCum = append(d.collCum, cum)
	}
	if len(prefixes)+int(cum) != nStr {
		return nil, fmt.Errorf("keycodec: directory tiles %d keys, header says %d: %w",
			len(prefixes)+int(cum), nStr, binenc.ErrCorrupt)
	}
	d.strs = make([]string, 0, nStr)
	var buf []byte
	ci := 0 // next collision-directory slot
	for pi, p := range prefixes {
		group := 1
		if ci < len(d.collIdx) && d.collIdx[ci] == int32(pi) {
			group += int(d.collCum[ci+1] - d.collCum[ci])
			ci++
		}
		pb := prefixBytes(p)
		if g := group; g > d.maxGroup {
			d.maxGroup = g
		}
		for m := 0; m < group; m++ {
			l := r.Uvarint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			head := int(l)
			if head > PrefixLen {
				head = PrefixLen
			}
			tail := int(l) - head
			if l > uint64(int(^uint(0)>>1)) || tail > r.Remaining() {
				return nil, fmt.Errorf("keycodec: suffix overruns input: %w", binenc.ErrCorrupt)
			}
			buf = append(buf[:0], pb[:head]...)
			buf = append(buf, r.Take(tail)...)
			if r.Err() != nil {
				return nil, r.Err()
			}
			s := string(buf)
			if Prefix(s) != p {
				return nil, fmt.Errorf("keycodec: key prefix mismatch: %w", binenc.ErrCorrupt)
			}
			if n := len(d.strs); n > 0 && d.strs[n-1] >= s {
				return nil, fmt.Errorf("keycodec: keys not strictly increasing: %w", binenc.ErrCorrupt)
			}
			d.strs = append(d.strs, s)
		}
	}
	return d, nil
}
