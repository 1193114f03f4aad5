package hashfn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	if Mix64(12345) != Mix64(12345) {
		t.Fatal("Mix64 not deterministic")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity over a window; fmix64 is bijective by
	// construction (xorshift and odd-multiplier steps are invertible).
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100_000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits.
	rng := rand.New(rand.NewSource(1))
	total := 0.0
	trials := 2000
	for i := 0; i < trials; i++ {
		x := rng.Uint64()
		bit := uint(rng.Intn(64))
		d := Mix64(x) ^ Mix64(x^(1<<bit))
		total += float64(bits.OnesCount64(d))
	}
	avg := total / float64(trials)
	if avg < 28 || avg > 36 {
		t.Fatalf("poor avalanche: avg flipped bits = %.2f, want ~32", avg)
	}
}

func TestHash64SeedIndependence(t *testing.T) {
	if Hash64(42, 1) == Hash64(42, 2) {
		t.Fatal("different seeds should give different hashes")
	}
}

func TestHash64Avalanche(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	total := 0.0
	trials := 2000
	for i := 0; i < trials; i++ {
		x := rng.Uint64()
		bit := uint(rng.Intn(64))
		d := Hash64(x, 7) ^ Hash64(x^(1<<bit), 7)
		total += float64(bits.OnesCount64(d))
	}
	avg := total / float64(trials)
	if avg < 28 || avg > 36 {
		t.Fatalf("poor avalanche: avg flipped bits = %.2f, want ~32", avg)
	}
}

func TestHashStringDistinctInputs(t *testing.T) {
	inputs := []string{"", "a", "b", "ab", "ba", "abc", "abd", "hello world",
		"hello worlc", "aaaaaaaa", "aaaaaaaaa", "aaaaaaab"}
	seen := make(map[uint64]string)
	for _, s := range inputs {
		h := HashString(s, 0)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision between %q and %q", s, prev)
		}
		seen[h] = s
	}
}

func TestHashStringTailSensitivity(t *testing.T) {
	// Strings differing only in the last (tail) byte must hash differently.
	a := HashString("12345678x", 0)
	b := HashString("12345678y", 0)
	if a == b {
		t.Fatal("tail byte ignored")
	}
}

func TestReduceRange(t *testing.T) {
	f := func(h uint64, n uint16) bool {
		m := int(n)%1000 + 1
		r := Reduce(h, m)
		return r >= 0 && r < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceUniformity(t *testing.T) {
	// Chi-squared-ish check: mixing sequential keys then reducing to 100
	// buckets should be near-uniform.
	const buckets = 100
	const n = 100_000
	counts := make([]int, buckets)
	for i := uint64(0); i < n; i++ {
		counts[Reduce(Mix64(i), buckets)]++
	}
	expect := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > expect*0.2 {
			t.Fatalf("bucket %d has %d entries, expected ~%.0f", b, c, expect)
		}
	}
}

func TestHashStringEmptyAndLong(t *testing.T) {
	long := make([]byte, 1024)
	for i := range long {
		long[i] = byte(i)
	}
	if HashString("", 1) == HashString(string(long), 1) {
		t.Fatal("empty and long strings collide")
	}
	// 8-byte-aligned vs unaligned lengths must both work.
	if HashString("12345678", 1) == HashString("1234567", 1) {
		t.Fatal("aligned/unaligned collision")
	}
}

// hashStringByteLoop is HashString as it was first written, one byte at a
// time: the reference the word-load form must match bit for bit, because
// every stored Bloom filter was built with these values.
func hashStringByteLoop(s string, seed uint64) uint64 {
	const (
		c1 = 0x87c37b91114253d5
		c2 = 0x4cf5ad432745937f
	)
	h := seed
	i := 0
	for ; i+8 <= len(s); i += 8 {
		var k uint64
		for j := 0; j < 8; j++ {
			k |= uint64(s[i+j]) << (8 * j)
		}
		k *= c1
		k = bits.RotateLeft64(k, 31)
		k *= c2
		h ^= k
		h = bits.RotateLeft64(h, 27)
		h = h*5 + 0x52dce729
	}
	var tail uint64
	for j := 0; i+j < len(s); j++ {
		tail |= uint64(s[i+j]) << (8 * j)
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

func TestHashStringMatchesByteLoop(t *testing.T) {
	// Golden values, computed before the word-load rewrite.
	for _, g := range []struct {
		s    string
		want uint64
	}{
		{"", 0x9ca066f1a4ab2eea},
		{"abc", 0x322251b5f4fac019},
		{"12345678", 0x2d0a79c40a438dbf},
		{"hello world", 0xad5bf091a6b4095e},
		{"DOC-000000000042-en", 0xdb75091321119f62},
	} {
		if got := HashString(g.s, 0x9e3779b97f4a7c15); got != g.want {
			t.Fatalf("HashString(%q) = %#x, golden %#x", g.s, got, g.want)
		}
	}
	buf := make([]byte, 40)
	for round := 0; round < 200; round++ {
		for i := range buf {
			buf[i] = byte(Mix64(uint64(round*len(buf) + i)))
		}
		if round == 0 {
			clear(buf) // all-zero bytes: a zero tail is skipped, only the length tells
		}
		for n := 0; n <= len(buf); n++ {
			s := string(buf[:n])
			for _, seed := range []uint64{0, 1, 0xdeadbeefcafef00d} {
				if got, want := HashString(s, seed), hashStringByteLoop(s, seed); got != want {
					t.Fatalf("len %d seed %#x: HashString = %#x, byte loop = %#x", n, seed, got, want)
				}
			}
		}
	}
}

func BenchmarkHashString(b *testing.B) {
	for _, n := range []int{15, 28} {
		keys := make([]string, 1024)
		for i := range keys {
			keys[i] = fmt.Sprintf("%0*d", n, i)
		}
		b.Run(fmt.Sprintf("len%d", n), func(b *testing.B) {
			var s uint64
			for i := 0; i < b.N; i++ {
				k := keys[i&1023]
				s += HashString(k, 1) + HashString(k, 2) // one Bloom (h1, h2) pair
			}
			sinkU64 = s
		})
	}
}

func BenchmarkMix64(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s += Mix64(uint64(i))
	}
	sinkU64 = s
}

func BenchmarkHash64(b *testing.B) {
	var s uint64
	for i := 0; i < b.N; i++ {
		s += Hash64(uint64(i), 7)
	}
	sinkU64 = s
}

var sinkU64 uint64
