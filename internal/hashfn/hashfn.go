// Package hashfn provides the randomized hash functions used as baselines
// throughout the learned-index evaluation.
//
// The paper compares learned hash functions against "a simple
// MurmurHash3-like hash-function" (§4.2). We implement the 64-bit MurmurHash3
// finalizer (fmix64) and a full Murmur3-style mixer over 8-byte keys, plus a
// seeded string hash built from the same primitives. All functions are pure
// and allocation-free.
package hashfn

import "math/bits"

// Mix64 is the MurmurHash3 fmix64 finalizer: a fast, high-quality avalanche
// function over a 64-bit word. It is bijective, so distinct keys never
// collide in the 64-bit space; collisions only appear after reduction to a
// table size.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Hash64 hashes a 64-bit key with a seed, Murmur3 style. It processes the
// key as a single 8-byte block followed by the finalizer, matching the
// structure (constants and rotations) of MurmurHash3's x64 variant.
func Hash64(key, seed uint64) uint64 {
	const (
		c1 = 0x87c37b91114253d5
		c2 = 0x4cf5ad432745937f
	)
	h := seed
	k := key
	k *= c1
	k = bits.RotateLeft64(k, 31)
	k *= c2
	h ^= k
	h = bits.RotateLeft64(h, 27)
	h = h*5 + 0x52dce729
	h ^= 8 // length
	return Mix64(h)
}

// HashString hashes a byte string with a seed using a Murmur3-style block
// mixer. It is used for string-keyed hash maps and Bloom filters.
func HashString(s string, seed uint64) uint64 {
	const (
		c1 = 0x87c37b91114253d5
		c2 = 0x4cf5ad432745937f
	)
	h := seed
	i := 0
	for ; i+8 <= len(s); i += 8 {
		k := le64(s[i : i+8])
		k *= c1
		k = bits.RotateLeft64(k, 31)
		k *= c2
		h ^= k
		h = bits.RotateLeft64(h, 27)
		h = h*5 + 0x52dce729
	}
	// The tail is the last len(s)-i < 8 bytes, little-endian. A string of
	// at least one block reads them out of its last whole word.
	var tail uint64
	if rem := len(s) - i; rem > 0 && len(s) >= 8 {
		tail = le64(s[len(s)-8:]) >> (8 * uint(8-rem))
	} else {
		for j := 0; j < rem; j++ {
			tail |= uint64(s[i+j]) << (8 * j)
		}
	}
	if tail != 0 {
		tail *= c1
		tail = bits.RotateLeft64(tail, 31)
		tail *= c2
		h ^= tail
	}
	h ^= uint64(len(s))
	return Mix64(h)
}

// le64 loads the first 8 bytes of b as a little-endian word; the compiler
// fuses the byte loads into one.
func le64(b string) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Reduce maps a 64-bit hash onto [0, n) without the modulo bias of h % n.
// It uses Lemire's multiply-shift reduction.
func Reduce(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}
