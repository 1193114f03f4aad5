// Package bloom implements the standard Bloom filter of §5: a bit array of
// size m and k hash functions, the existence-index baseline and the
// overflow structure inside learned Bloom filters.
//
// The k probe positions are derived with double hashing (Kirsch &
// Mitzenmacher): h_i = h1 + i*h2 mod m, which matches the false-positive
// behaviour of k independent hashes at a fraction of the hashing cost.
package bloom

import (
	"math"

	"learnedindex/internal/hashfn"
)

// Filter is a Bloom filter in one of two layouts:
//
//   - standard (§5): k probe positions scattered across the whole bit
//     array — up to k cache lines touched per query;
//   - register-blocked: the first hash selects ONE 512-bit block (a
//     single cache line) and all k probe bits live inside it, so any
//     query — hit or miss — touches exactly one line. The price is a
//     slightly worse false-positive rate at equal m (per-block load
//     variance), which NewBlocked offsets by spending ~20% more bits.
//
// The blocked layout is what the storage engine uses for per-segment
// miss pruning: a multi-segment Contains probes every segment's filter,
// so the filter walk is one memory touch per segment instead of k.
type Filter struct {
	bits    []uint64
	m       uint64 // number of bits
	k       int    // number of hash functions
	n       int    // inserted elements
	blocked bool   // register-blocked layout
}

// Blocked layout constants: 512-bit (one cache line) blocks, probe bits
// derived from disjoint 9-bit lanes of the second hash — which caps the
// blocked k at 7 (7 lanes × 9 bits = 63 of the 64 hash bits).
const (
	blockBits    = 512
	blockWords   = blockBits / 64
	maxBlockedK  = 7
	blockBitMask = blockBits - 1
)

// OptimalM returns the number of bits needed for n elements at target false
// positive rate p: m = -n·ln(p)/(ln 2)², the classic sizing the paper uses
// for its "1.76GB for one billion records at 1% FPR" arithmetic.
func OptimalM(n int, p float64) uint64 {
	if n <= 0 {
		return 64
	}
	if p <= 0 {
		p = 1e-9
	}
	if p >= 1 {
		return 64
	}
	m := -float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)
	u := uint64(math.Ceil(m))
	if u < 64 {
		u = 64
	}
	return u
}

// OptimalK returns the optimal number of hash functions for m bits and n
// elements: k = (m/n)·ln 2.
func OptimalK(m uint64, n int) int {
	if n <= 0 {
		return 1
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// New creates a filter sized for n elements at false-positive rate p.
func New(n int, p float64) *Filter {
	m := OptimalM(n, p)
	return NewWithSize(m, OptimalK(m, n))
}

// NewWithSize creates a standard filter with exactly m bits and k hash
// functions.
func NewWithSize(m uint64, k int) *Filter {
	if m < 64 {
		m = 64
	}
	if k < 1 {
		k = 1
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// NewBlocked creates a register-blocked filter sized for n elements at a
// target false-positive rate p: the standard sizing plus ~20% to offset
// the blocked layout's per-block load variance, rounded up to whole
// cache-line blocks, with k capped at the lane limit.
func NewBlocked(n int, p float64) *Filter {
	m := OptimalM(n, p)
	m += m / 5
	m = (m + blockBits - 1) / blockBits * blockBits
	k := OptimalK(m, n)
	if k > maxBlockedK {
		k = maxBlockedK
	}
	return &Filter{bits: make([]uint64, m/64), m: m, k: k, blocked: true}
}

// blockBase derives the block's first word index from a key's first
// hash; the k probe bits each take a disjoint 9-bit lane of the second
// hash, so all k bits — and the one cache line holding them — are fixed
// by two hash evaluations.
func (f *Filter) blockBase(h1 uint64) uint64 {
	return (h1 % (f.m / blockBits)) * blockWords
}

func (f *Filter) addBlocked(h1, h2 uint64) {
	setBlock(f.bits, f.blockBase(h1), h2, f.k)
	f.n++
}

// setBlock sets the k probe bits of h2 in the block of bits starting at
// word base: the one place the blocked probe-bit layout is written.
func setBlock(bits []uint64, base, h2 uint64, k int) {
	for i := 0; i < k; i++ {
		p := (h2 >> (9 * uint(i))) & blockBitMask
		bits[base+p>>6] |= 1 << (p & 63)
	}
}

func (f *Filter) mayContainBlocked(h1, h2 uint64) bool {
	base := f.blockBase(h1)
	for i := 0; i < f.k; i++ {
		p := (h2 >> (9 * uint(i))) & blockBitMask
		if f.bits[base+p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// Double-hashing seeds: every key is reduced to one (h1, h2) pair, from
// which both layouts derive all k probe positions.
const (
	seed1 = 0x9e3779b97f4a7c15
	seed2 = 0xc2b2ae3d27d4eb4f
)

// HashUint64 returns the hash pair of an integer key. The pair does not
// depend on any filter, so a caller probing many filters with one key —
// the storage engine walking its segment list — hashes once and probes
// each filter with MayContainHash.
func HashUint64(key uint64) (h1, h2 uint64) {
	return hashfn.Hash64(key, seed1), hashfn.Hash64(key, seed2) | 1
}

// HashString is HashUint64 for a string key.
func HashString(key string) (h1, h2 uint64) {
	return hashfn.HashString(key, seed1), hashfn.HashString(key, seed2) | 1
}

// AddHash inserts the key whose hash pair is (h1, h2).
func (f *Filter) AddHash(h1, h2 uint64) {
	if f.blocked {
		f.addBlocked(h1, h2)
		return
	}
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		f.bits[p>>6] |= 1 << (p & 63)
	}
	f.n++
}

// MayContainHash reports whether the key whose hash pair is (h1, h2) may
// be in the set (false positives possible, false negatives impossible).
func (f *Filter) MayContainHash(h1, h2 uint64) bool {
	if f.blocked {
		return f.mayContainBlocked(h1, h2)
	}
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		if f.bits[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// Add inserts key.
func (f *Filter) Add(key string) { f.AddHash(HashString(key)) }

// MayContain reports whether key may be in the set.
func (f *Filter) MayContain(key string) bool { return f.MayContainHash(HashString(key)) }

// AddUint64 inserts an integer key.
func (f *Filter) AddUint64(key uint64) { f.AddHash(HashUint64(key)) }

// MayContainUint64 reports whether the integer key may be in the set.
func (f *Filter) MayContainUint64(key uint64) bool { return f.MayContainHash(HashUint64(key)) }

// Blocked reports whether the filter uses the register-blocked layout.
func (f *Filter) Blocked() bool { return f.blocked }

// SizeBytes returns the bit-array footprint.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// Bits returns m, the number of bits.
func (f *Filter) Bits() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// Count returns the number of inserted elements.
func (f *Filter) Count() int { return f.n }

// EstimatedFPR returns the analytic false-positive rate for the current
// fill: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFPR() float64 {
	if f.n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(f.k)*float64(f.n)/float64(f.m)), float64(f.k))
}
