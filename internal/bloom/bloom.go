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

// Filter is the standard Bloom filter of §5: k probe positions scattered
// across the whole bit array.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
	n    int    // inserted elements
}

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

// Double-hashing seeds: every key is reduced to one (h1, h2) pair, from
// which all k probe positions derive.
const (
	seed1 = 0x9e3779b97f4a7c15
	seed2 = 0xc2b2ae3d27d4eb4f
)

// set inserts the key whose double-hash pair is (h1, h2).
func (f *Filter) set(h1, h2 uint64) {
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		f.bits[p>>6] |= 1 << (p & 63)
	}
	f.n++
}

// test reports whether the key whose double-hash pair is (h1, h2) may be in
// the set (false positives possible, false negatives impossible).
func (f *Filter) test(h1, h2 uint64) bool {
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		if f.bits[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}

// Add inserts key.
func (f *Filter) Add(key string) {
	f.set(hashfn.HashString(key, seed1), hashfn.HashString(key, seed2)|1)
}

// MayContain reports whether key may be in the set.
func (f *Filter) MayContain(key string) bool {
	return f.test(hashfn.HashString(key, seed1), hashfn.HashString(key, seed2)|1)
}

// AddUint64 inserts an integer key.
func (f *Filter) AddUint64(key uint64) {
	f.set(hashfn.Hash64(key, seed1), hashfn.Hash64(key, seed2)|1)
}

// MayContainUint64 reports whether the integer key may be in the set.
func (f *Filter) MayContainUint64(key uint64) bool {
	return f.test(hashfn.Hash64(key, seed1), hashfn.Hash64(key, seed2)|1)
}

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
