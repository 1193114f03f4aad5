// Package keycodec is the order-preserving key codec that generalizes the
// learned-index stack from uint64 keys to string (and composite) keys
// (§3.5's string experiments, made to flow through the whole serve/storage/
// scan stack): a string key is a numeric vector plus a tie-break, and is
// stored as one.
//
// The codec splits a string key into two parts:
//
//   - a fixed-width uint64 *prefix* — the key's first 8 bytes packed
//     big-endian (zero-padded) — which is order-preserving: for any keys
//     a < b (bytes order), Prefix(a) <= Prefix(b), and Prefix(a) < Prefix(b)
//     implies a < b. Every uint64-native layer (RMI training and compiled
//     plans, node range-splitting, segment fences, delta-varint key
//     blocks) operates on prefixes unchanged;
//
//   - a per-segment suffix *dictionary* (Dict) holding the exact keys in
//     sorted order, grouped by prefix, for disambiguation when prefixes
//     collide (keys sharing their first 8 bytes, or short keys whose
//     zero-padded prefixes coincide). On disk and in memory alike it stores
//     each key's length plus only the bytes beyond the prefix: long keys
//     don't pay their first 8 bytes twice, and a resident key is bytes in
//     one block, never a string header or a heap object.
//
// A lookup routes through both: the prefix enters the uint64 machinery
// (model inference, fences, filters), and on a prefix hit the dictionary's
// collision directory narrows to the group of keys sharing that prefix,
// where the probe's tail is compared against the stored suffix bytes in
// place (Dict.Find; see core.StringIndex). Strings exist only at the API
// edge: a scan page, a Keys reply, a merge's input run are materialized for
// the call that needs them (Dict.AppendKeys).
//
// Composite keys (Datomic-style entity/attribute tuples) enter the same
// pipeline via Composite: an escaped concatenation whose bytewise order
// equals element-wise tuple order, so a composite key is just a string key
// with structure — its first components dominate the prefix, which is
// exactly the shared-prefix clustering the dictionary exists to absorb.
package keycodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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
//
// A key of 8 bytes or more is one big-endian load: after the s[7] bounds
// hint the compiler merges the eight shifted bytes into a MOVQ + BSWAPQ.
// Shorter keys take the byte loop.
func Prefix(s string) uint64 {
	if len(s) >= PrefixLen {
		_ = s[7]
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		v |= uint64(s[i]) << (56 - 8*uint(i))
	}
	return v
}

// prefixBytes writes p's big-endian bytes into an 8-byte array.
func prefixBytes(p uint64) [PrefixLen]byte {
	var b [PrefixLen]byte
	binary.BigEndian.PutUint64(b[:], p)
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

// Dict is the exact-key side of the codec: a segment's sorted unique
// string keys plus a sparse collision directory
// mapping each *prefix rank* to its run of keys. Most prefixes own exactly
// one key, so the directory records only the exceptions: the prefix indexes
// whose group holds more than one key, with cumulative extras so rank
// arithmetic stays O(log collisions).
//
// Memory is the serialized form. A key's first bytes live in the prefix
// array it shares with the uint64 layer; the rest is its entry in one byte
// block for the whole key set — the key's full length L as a uvarint, then
// the max(0, L-8) bytes beyond the prefix — which is, byte for byte, the
// key block AppendBinary writes and DecodeDict reads. L carries what the
// zero-padded prefix cannot (a short key's exact length: "a" against
// "a\x00"). Entries are variable-width, so every dictStride-th one has its
// offset recorded and the ones between are reached by skipping lengths. No
// slice holds a pointer: the collector never scans a resident key, and a
// key costs its bytes plus about one and a half, not its bytes plus a
// 16-byte header and a heap object.
//
// A Dict is immutable after Build/Decode and safe for concurrent readers.
type Dict struct {
	prefixes []uint64 // sorted deduplicated prefixes, shared with the uint64 layer
	block    []byte   // every key's entry, in key order
	index    []uint32 // index[b] is the offset in block of key b*dictStride's entry
	min, max string   // first and last key, the fences of the set
	// Sparse collision directory over prefix indexes. collIdx lists, in
	// increasing order, the prefix indexes whose group size exceeds 1;
	// collCum[j] is the total extra keys (group size - 1 summed) owned by
	// collIdx[:j], so collCum has len(collIdx)+1 entries with collCum[0]=0.
	collIdx  []int32
	collCum  []int32
	maxGroup int
}

const (
	// dictStride is how many keys share one recorded offset: half a byte of
	// index per key, at most seven lengths skipped to reach an entry.
	dictStride = 8
	// maxBlock bounds a dictionary's key block: offsets are 32-bit.
	maxBlock = 1<<32 - 1
)

// split cuts a key at the prefix boundary: how many of the prefix's bytes
// are the key's own, and the bytes beyond it. Among keys that share a
// prefix, (head, tail) order is key order — a shorter head is a proper
// prefix of a longer one, and equal heads below PrefixLen are equal keys.
func split(key string) (head int, tail string) {
	if len(key) <= PrefixLen {
		return len(key), ""
	}
	return PrefixLen, key[PrefixLen:]
}

// cmpEntry orders a stored entry against a probe that shares its prefix,
// both in split form.
func cmpEntry(head int, sfx []byte, probeHead int, probeTail string) int {
	switch {
	case head != probeHead:
		return head - probeHead
	case string(sfx) == probeTail:
		return 0
	case string(sfx) < probeTail:
		return -1
	}
	return 1
}

// BuildDict derives the codec pair from sorted unique keys: the sorted
// deduplicated prefix array (the uint64 layer's key set) and the dictionary
// over the exact keys. The key bytes are copied; keys is not retained. A
// key set whose block would exceed the 32-bit offsets is an error.
func BuildDict(keys []string) ([]uint64, *Dict, error) {
	size := 0
	for _, k := range keys {
		size += binenc.UvarintLen(uint64(len(k))) + max(0, len(k)-PrefixLen)
	}
	if uint64(size) > maxBlock {
		return nil, nil, fmt.Errorf("keycodec: a %d-byte key block exceeds the dictionary's 4 GiB", size)
	}
	d := &Dict{
		prefixes: make([]uint64, 0, len(keys)),
		block:    make([]byte, 0, size),
		index:    make([]uint32, 0, (len(keys)+dictStride-1)/dictStride),
		collCum:  []int32{0},
	}
	// One pass, one Prefix per key: a key whose prefix differs from the
	// last one opens a group; one that repeats it is an extra key of the
	// open group, counted into the collision directory as it arrives.
	start := 0 // the open group's first key
	for j, k := range keys {
		if p := Prefix(k); j == 0 || p != d.prefixes[len(d.prefixes)-1] {
			start = j
			d.prefixes = append(d.prefixes, p)
		} else {
			if j == start+1 {
				d.collIdx = append(d.collIdx, int32(len(d.prefixes)-1))
				d.collCum = append(d.collCum, d.collCum[len(d.collCum)-1])
			}
			d.collCum[len(d.collCum)-1]++
			d.maxGroup = max(d.maxGroup, j-start+1)
		}
		if j%dictStride == 0 {
			d.index = append(d.index, uint32(len(d.block)))
		}
		_, tail := split(k)
		d.block = binenc.AppendUvarint(d.block, uint64(len(k)))
		d.block = append(d.block, tail...)
	}
	if len(keys) > 0 {
		d.maxGroup = max(d.maxGroup, 1)
		d.min, d.max = strings.Clone(keys[0]), strings.Clone(keys[len(keys)-1])
	}
	return d.prefixes, d, nil
}

// Len returns the number of keys.
func (d *Dict) Len() int { return len(d.prefixes) + d.NumCollisions() }

// Min and Max return the first and last key ("" for an empty dictionary):
// the fences a layer tests before it runs any model.
func (d *Dict) Min() string { return d.min }
func (d *Dict) Max() string { return d.max }

// NumCollisions returns how many keys share a prefix with an earlier key —
// Len() minus the prefix count.
func (d *Dict) NumCollisions() int {
	return int(d.collCum[len(d.collCum)-1])
}

// MaxGroup returns the largest number of keys sharing one prefix.
func (d *Dict) MaxGroup() int { return d.maxGroup }

// slot returns the first directory slot whose prefix index is >= pi.
func (d *Dict) slot(pi int) int {
	lo, hi := 0, len(d.collIdx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(d.collIdx[mid]) < pi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Start returns the key index of the first key whose prefix rank is pi. pi
// may equal the prefix count, yielding Len(). This is the rank bridge
// between the uint64 layer and the exact keys: a prefix-plan lower bound pi
// becomes the string lower bound Start(pi) when the probe's prefix is
// absent, and the group [Start(pi), Start(pi+1)) when present.
func (d *Dict) Start(pi int) int { return pi + int(d.collCum[d.slot(pi)]) }

// Group returns the [start, end) key range of prefix rank pi, in one
// directory search.
func (d *Dict) Group(pi int) (int, int) {
	j := d.slot(pi)
	s := pi + int(d.collCum[j])
	if j < len(d.collIdx) && int(d.collIdx[j]) == pi {
		return s, s + 1 + int(d.collCum[j+1]-d.collCum[j])
	}
	return s, s + 1
}

// groupOf is Group's inverse: the prefix rank of key index i and the end of
// that prefix's group.
func (d *Dict) groupOf(i int) (pi, end int) {
	// The last directory slot whose group starts at or before i.
	lo, hi := 0, len(d.collIdx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(d.collIdx[mid])+int(d.collCum[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return i, i + 1
	}
	if end := int(d.collIdx[lo-1]) + int(d.collCum[lo]) + 1; i < end {
		return int(d.collIdx[lo-1]), end
	}
	return i - int(d.collCum[lo]), i + 1
}

// entry decodes the entry at off: how many prefix bytes are the key's own,
// its bytes beyond the prefix (in place), and where the next entry starts.
// Build and Decode only ever store well-formed entries.
func (d *Dict) entry(off int) (head int, sfx []byte, next int) {
	l, w := uint64(d.block[off]), 1
	if l >= 0x80 {
		l, w = binary.Uvarint(d.block[off:])
	}
	head = int(min(l, PrefixLen))
	next = off + w + int(l) - head
	return head, d.block[off+w : next], next
}

// at returns the offset of key i's entry: the recorded offset of its
// stride, then one length per key skipped.
func (d *Dict) at(i int) int {
	off := int(d.index[i/dictStride])
	for j := i % dictStride; j > 0; j-- {
		_, _, off = d.entry(off)
	}
	return off
}

// Find is the second level of a lookup: given pi, the lower-bound rank of
// key's prefix p over the prefix array, it returns key's exact lower bound
// over the keys and whether key is stored. A prefix miss maps straight
// through the rank bridge; a hit searches the collision group in place —
// halving a group of more than a stride, walking the entries of the rest.
func (d *Dict) Find(key string, p uint64, pi int) (pos int, found bool) {
	if pi >= len(d.prefixes) || d.prefixes[pi] != p {
		return d.Start(pi), false
	}
	head, tail := split(key)
	s, end := d.Group(pi)
	for e := end; e-s > dictStride; {
		mid := int(uint(s+e) >> 1)
		if h, sfx, _ := d.entry(d.at(mid)); cmpEntry(h, sfx, head, tail) < 0 {
			s = mid + 1
		} else {
			e = mid // the answer is at most mid: the walk below stops there
		}
	}
	for off := d.at(s); s < end; s++ {
		h, sfx, next := d.entry(off)
		if c := cmpEntry(h, sfx, head, tail); c >= 0 {
			return s, c == 0
		}
		off = next
	}
	return s, false
}

// AppendKeys materializes keys [lo, hi) onto dst. The run's bytes are one
// allocation — one string, handed out in substrings — whatever its length;
// holding any one of the returned keys keeps the whole run's bytes alive.
func (d *Dict) AppendKeys(dst []string, lo, hi int) []string {
	if lo >= hi {
		return dst
	}
	start := d.at(lo)
	end := len(d.block)
	if hi < d.Len() {
		end = d.at(hi)
	}
	// Every entry gives up its length and gains at most the prefix.
	var sb strings.Builder
	sb.Grow(end - start + (hi-lo)*(PrefixLen-1))
	dst = slices.Grow(dst, hi-lo)
	pi, groupEnd := d.groupOf(lo)
	ci := d.slot(pi + 1) // the next collision group after pi's
	pb := prefixBytes(d.prefixes[pi])
	for i, off := lo, start; i < hi; i++ {
		if i == groupEnd {
			pi++
			groupEnd++
			if ci < len(d.collIdx) && int(d.collIdx[ci]) == pi {
				groupEnd += int(d.collCum[ci+1] - d.collCum[ci])
				ci++
			}
			pb = prefixBytes(d.prefixes[pi])
		}
		head, sfx, next := d.entry(off)
		sb.Write(pb[:head])
		sb.Write(sfx)
		// The builder never outgrows what Grow reserved, so the run so far
		// is a view of the one buffer and the key just written is its tail.
		run := sb.String()
		dst = append(dst, run[len(run)-head-len(sfx):])
		off = next
	}
	return dst
}

// AppendBinary appends the dictionary's serialized form: the collision
// directory plus the key block — for every key, its full length L and only
// the bytes beyond the 8-byte prefix (max(0, L-8) of them), since the
// prefix array already pins the leading bytes (and, with L, the exact
// short-key padding).
func (d *Dict) AppendBinary(b []byte) []byte {
	b = binenc.AppendUvarint(b, uint64(d.Len()))
	b = binenc.AppendUvarint(b, uint64(len(d.collIdx)))
	prev := int32(-1)
	for j, ci := range d.collIdx {
		b = binenc.AppendUvarint(b, uint64(ci-prev)) // strictly positive delta
		b = binenc.AppendUvarint(b, uint64(d.collCum[j+1]-d.collCum[j]))
		prev = ci
	}
	return append(b, d.block...)
}

// EncodedLen returns len(d.AppendBinary(nil)) without encoding, so a caller
// framing the dictionary as a length-prefixed block can size its buffer
// once and encode in place.
func (d *Dict) EncodedLen() int {
	n := binenc.UvarintLen(uint64(d.Len())) + binenc.UvarintLen(uint64(len(d.collIdx)))
	prev := int32(-1)
	for j, ci := range d.collIdx {
		n += binenc.UvarintLen(uint64(ci-prev)) + binenc.UvarintLen(uint64(d.collCum[j+1]-d.collCum[j]))
		prev = ci
	}
	return n + len(d.block)
}

// DecodeDict decodes a dictionary serialized by AppendBinary against the
// already-decoded prefix array, which it keeps: every key's prefix must
// match its group's, the keys must be strictly increasing, and the
// directory must tile the prefix array exactly. The key block is validated
// where it lies and then copied once: no allocation per key, nothing of
// the input kept. Arbitrary input yields an error, never a panic — decode
// state flows through the latched binenc.Reader and explicit bounds checks.
func DecodeDict(r *binenc.Reader, prefixes []uint64) (*Dict, error) {
	nStr := r.Count(int(^uint(0)>>1), 1)
	nColl := r.Count(len(prefixes)+1, 1)
	if r.Err() != nil {
		return nil, r.Err()
	}
	d := &Dict{
		prefixes: prefixes,
		collIdx:  make([]int32, 0, nColl),
		collCum:  make([]int32, 1, nColl+1),
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
	// Every key spends at least one byte on its length, so the count is
	// bounded by the input before anything is sized by it.
	in := r.Rest()
	if len(in) < nStr {
		return nil, fmt.Errorf("keycodec: %d keys in %d bytes: %w", nStr, len(in), binenc.ErrCorrupt)
	}
	d.index = make([]uint32, 0, (nStr+dictStride-1)/dictStride)
	var (
		ci       = 0 // next collision-directory slot
		i        = 0 // next key index
		prevHead int
		prevSfx  []byte
	)
	for pi, p := range prefixes {
		if pi > 0 && prefixes[pi-1] >= p {
			return nil, fmt.Errorf("keycodec: keys not strictly increasing: %w", binenc.ErrCorrupt)
		}
		group := 1
		if ci < len(d.collIdx) && d.collIdx[ci] == int32(pi) {
			group += int(d.collCum[ci+1] - d.collCum[ci])
			ci++
		}
		d.maxGroup = max(d.maxGroup, group)
		for m := 0; m < group; m, i = m+1, i+1 {
			off := len(in) - r.Remaining()
			if uint64(off) > maxBlock {
				return nil, fmt.Errorf("keycodec: key block exceeds 4 GiB: %w", binenc.ErrCorrupt)
			}
			if i%dictStride == 0 {
				d.index = append(d.index, uint32(off))
			}
			l := r.Uvarint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			head := int(min(l, PrefixLen))
			if l-uint64(head) > uint64(r.Remaining()) {
				return nil, fmt.Errorf("keycodec: suffix overruns input: %w", binenc.ErrCorrupt)
			}
			// A key shorter than the prefix is the prefix's leading bytes: the
			// padding it leaves must be zero in p.
			if head < PrefixLen && p<<(8*uint(head)) != 0 {
				return nil, fmt.Errorf("keycodec: key prefix mismatch: %w", binenc.ErrCorrupt)
			}
			sfx := r.Take(int(l) - head)
			// Inside a group (head, suffix) order is key order; across groups
			// the prefixes order the keys.
			if m > 0 && (prevHead > head || (prevHead == head && bytes.Compare(prevSfx, sfx) >= 0)) {
				return nil, fmt.Errorf("keycodec: keys not strictly increasing: %w", binenc.ErrCorrupt)
			}
			prevHead, prevSfx = head, sfx
		}
	}
	d.block = bytes.Clone(in[:len(in)-r.Remaining()])
	if nStr > 0 {
		d.min, d.max = d.AppendKeys(nil, 0, 1)[0], d.AppendKeys(nil, nStr-1, nStr)[0]
	}
	return d, nil
}
