package main

// Input generators. The benchmark owns its generators (splitmix64, normal,
// lognormal, Zipf, DocID strings) so the program under test receives only
// generated inputs and a later change to the repo's own data packages cannot
// move the benchmark's inputs.

import (
	"math"
	"slices"
)

// rng is splitmix64: 64 bits of state, one multiply-xorshift per draw.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a stream label,
// so every worker and every generator draws from its own sequence.
func newRNG(seed uint64, stream string) *rng {
	h := seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 0x100000001b3
	}
	r := &rng{s: h}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in (0, 1).
func (r *rng) float() float64 { return (float64(r.next()>>11) + 0.5) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// normal returns a standard normal deviate (Box-Muller, one of the pair).
func (r *rng) normal() float64 {
	return math.Sqrt(-2*math.Log(r.float())) * math.Cos(2*math.Pi*r.float())
}

// Key classes. Every key carries a class tag so the reference oracle knows
// by arithmetic alone whether a key can be present: preloaded keys are the
// only keys of classPre, keys inserted during a run are classIns, and
// classMiss keys are never given to the program. The classes are disjoint by
// construction and, being the low bits of an otherwise lognormal key, spread
// over every shard and node.
const (
	classPre  = 0
	classIns  = 1
	classMiss = 2
)

// lognormalKey draws exp(N(0, 2)) (the paper's §3.7.1 lognormal), maps it onto
// [0, 2^58) with a fixed scale, and appends the class tag as the low two
// bits. The scale is fixed (not fitted to the sample) so keys drawn later, for
// inserts and misses, follow the preloaded keys' distribution.
func lognormalKey(r *rng, class uint64) uint64 {
	const sigma, clip = 2.0, 5.5 // |z| > 5.5 has probability 4e-8; clipped
	z := r.normal()
	if z > clip {
		z = clip
	}
	v := math.Exp(sigma*(z-clip)) * (1 << 58) // in (0, 2^58]
	k := uint64(v)
	if k >= 1<<58 {
		k = 1<<58 - 1
	}
	return k<<2 | class
}

// docIDKey draws a DocID-style string (paper §3.7.2: non-continuous
// document ids): a skewed two-character cluster, a burst base and a sparse
// tail in base 36, and the class tag as the last byte.
const docIDLen = 15

func docIDKey(r *rng, class uint64) string {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	var b [docIDLen]byte
	// Cluster popularity is skewed: the square of a uniform variate.
	u := r.float()
	cluster := int(u * u * 64)
	b[0] = 'd'
	b[1] = digits[cluster/36]
	b[2] = digits[cluster%36]
	b[3] = '-'
	burst := r.intn(1 << 20)
	for i := 0; i < 5; i++ {
		b[4+i] = digits[burst%36]
		burst /= 36
	}
	tail := r.intn(1 << 24)
	for i := 0; i < 5; i++ {
		b[9+i] = digits[tail%36]
		tail /= 36
	}
	b[14] = byte('0' + class)
	return string(b[:])
}

// keyspace is what the generic runner needs to know about a key type.
type keyspace[K uint64 | string] struct {
	draw     func(r *rng, class uint64) K
	class    func(k K) uint64
	keyBytes int64 // user bytes of one key: every key of a type has the same size
}

var uintKeys = keyspace[uint64]{
	draw:     lognormalKey,
	class:    func(k uint64) uint64 { return k & 3 },
	keyBytes: 8,
}

var stringKeys = keyspace[string]{
	draw:     docIDKey,
	class:    func(k string) uint64 { return uint64(k[len(k)-1] - '0') },
	keyBytes: docIDLen,
}

// preload returns n distinct sorted keys of classPre.
func (ks keyspace[K]) preload(r *rng, n int) []K {
	keys := make([]K, 0, n+n/64)
	for len(keys) < n {
		for len(keys) < cap(keys) {
			keys = append(keys, ks.draw(r, classPre))
		}
		keys = sortDedup(keys)
	}
	// Dropping from the top would bias the distribution; drop evenly.
	total, extra := len(keys), len(keys)-n
	out := keys[:0]
	for i, k := range keys {
		if (i+1)*extra/total == i*extra/total {
			out = append(out, k)
		}
	}
	return out
}

// sortDedup sorts keys in place and drops duplicates.
func sortDedup[K uint64 | string](keys []K) []K {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// lowerBound is the reference position of k in sorted keys.
func lowerBound[K uint64 | string](keys []K, k K) int {
	i, _ := slices.BinarySearch(keys, k)
	return i
}

// zipf samples key indices with a power-law popularity: rank r is drawn
// with probability proportional to the integral of x^-s over [r+1, r+2), the
// continuous form of Zipf's law, which inverts in closed form. A fixed
// permutation maps ranks to key indices so the hot keys are spread over the
// key space instead of being its smallest keys.
type zipf struct {
	s, span float64
	perm    []int32
}

func newZipf(r *rng, n int, s float64) *zipf {
	z := &zipf{s: s, span: math.Pow(float64(n+1), 1-s) - 1, perm: make([]int32, n)}
	for i := range z.perm {
		z.perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

func (z *zipf) index(r *rng) int {
	rank := int(math.Pow(1+r.float()*z.span, 1/(1-z.s))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(z.perm) {
		rank = len(z.perm) - 1
	}
	return int(z.perm[rank])
}
