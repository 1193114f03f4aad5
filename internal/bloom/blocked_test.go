package bloom

import (
	"math/rand"
	"testing"

	"learnedindex/internal/binenc"
)

// TestBlockedNoFalseNegatives is the filter's one hard guarantee, on the
// blocked layout: every inserted key answers true.
func TestBlockedNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := NewBlocked(50_000, 0.01)
	keys := make([]uint64, 50_000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.AddUint64(keys[i])
	}
	for _, k := range keys {
		if !f.MayContainUint64(k) {
			t.Fatalf("false negative on %d", k)
		}
	}
	if !f.Blocked() {
		t.Fatal("NewBlocked built a standard filter")
	}
	if f.Bits()%blockBits != 0 {
		t.Fatalf("m=%d not a whole number of blocks", f.Bits())
	}
	if f.K() > maxBlockedK {
		t.Fatalf("k=%d exceeds the blocked lane cap", f.K())
	}
}

// TestBlockedFPRClose checks the measured false-positive rate stays in
// the same regime as the target: blocked layouts trade a little FPR for
// one-cache-line probes, and NewBlocked's +20% sizing must keep the
// degradation within ~2.5x of the target at 1%.
func TestBlockedFPRClose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, target = 100_000, 0.01
	f := NewBlocked(n, target)
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		k := rng.Uint64()
		seen[k] = true
		f.AddUint64(k)
	}
	fp, probes := 0, 0
	for i := 0; i < 200_000; i++ {
		k := rng.Uint64()
		if seen[k] {
			continue
		}
		probes++
		if f.MayContainUint64(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	if rate > 2.5*target {
		t.Fatalf("blocked FPR %.4f too far above target %.4f", rate, target)
	}
}

// TestBlockedRoundTrip pins the version-tagged encoding: a blocked filter
// survives encode/decode with identical parameters and membership, and
// the tag leaves legacy (standard) decoding untouched — covered by the
// golden-format test next door.
func TestBlockedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewBlocked(10_000, 0.01)
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.AddUint64(keys[i])
	}
	f.Add("stringkey") // strings share the blocked layout too
	enc := f.AppendBinary(nil)
	g, err := Decode(binenc.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !g.Blocked() || g.Bits() != f.Bits() || g.K() != f.K() || g.Count() != f.Count() {
		t.Fatalf("header mismatch: got (%v,%d,%d,%d) want (%v,%d,%d,%d)",
			g.Blocked(), g.Bits(), g.K(), g.Count(), f.Blocked(), f.Bits(), f.K(), f.Count())
	}
	for _, k := range keys {
		if !g.MayContainUint64(k) {
			t.Fatalf("decoded filter lost member %d", k)
		}
	}
	if !g.MayContain("stringkey") {
		t.Fatal("decoded filter lost string member")
	}
	for i := 0; i < 50_000; i++ {
		k := rng.Uint64()
		if f.MayContainUint64(k) != g.MayContainUint64(k) {
			t.Fatalf("membership diverged on probe %d", k)
		}
	}
}

// TestBlockedDecodeCorrupt rejects blocked encodings that violate the
// layout invariants the probe math indexes by.
func TestBlockedDecodeCorrupt(t *testing.T) {
	// m not a multiple of the block size.
	bad := binenc.AppendUvarint(nil, blockedFormatTag)
	bad = binenc.AppendUvarint(bad, 1000)
	bad = binenc.AppendUvarint(bad, 5)
	bad = binenc.AppendUvarint(bad, 1)
	if _, err := Decode(binenc.NewReader(bad)); err == nil {
		t.Error("non-block-aligned m decoded without error")
	}
	// k beyond the 9-bit-lane cap.
	bad = binenc.AppendUvarint(nil, blockedFormatTag)
	bad = binenc.AppendUvarint(bad, blockBits)
	bad = binenc.AppendUvarint(bad, maxBlockedK+1)
	bad = binenc.AppendUvarint(bad, 1)
	if _, err := Decode(binenc.NewReader(bad)); err == nil {
		t.Error("over-cap k decoded without error")
	}
	// Truncated bit array.
	f := NewBlocked(1000, 0.01)
	f.AddUint64(42)
	enc := f.AppendBinary(nil)
	for _, trunc := range []int{1, 2, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(binenc.NewReader(enc[:trunc])); err == nil {
			t.Errorf("truncation at %d decoded without error", trunc)
		}
	}
}

// TestHashOnceEquivalence: hashing a key once and handing the pair to
// AddHash/MayContainHash is the keyed API exactly — same bits set, same
// answers for members and non-members, both layouts, both key kinds — so a
// caller walking many filters with one key may hash it once. EncodedLen is
// the length of the encoding it sizes.
func TestHashOnceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, mk := range []func() *Filter{
		func() *Filter { return NewBlocked(4000, 0.01) },
		func() *Filter { return New(4000, 0.01) },
	} {
		keyed, hashed := mk(), mk()
		for i := 0; i < 2000; i++ {
			k := rng.Uint64()
			keyed.AddUint64(k)
			hashed.AddHash(HashUint64(k))
			s := string(binenc.AppendUvarint([]byte("key/"), rng.Uint64()))
			keyed.Add(s)
			hashed.AddHash(HashString(s))
		}
		enc := keyed.AppendBinary(nil)
		if string(enc) != string(hashed.AppendBinary(nil)) {
			t.Fatalf("blocked=%v: AddHash built a different filter than Add/AddUint64", keyed.Blocked())
		}
		if keyed.EncodedLen() != len(enc) {
			t.Fatalf("blocked=%v: EncodedLen %d, encoding is %d bytes", keyed.Blocked(), keyed.EncodedLen(), len(enc))
		}
		for i := 0; i < 20_000; i++ { // mostly non-members: false positives must agree too
			k := rng.Uint64()
			if keyed.MayContainUint64(k) != keyed.MayContainHash(HashUint64(k)) {
				t.Fatalf("blocked=%v: MayContainHash disagrees with MayContainUint64 on %d", keyed.Blocked(), k)
			}
			s := string(binenc.AppendUvarint([]byte("key/"), k))
			if keyed.MayContain(s) != keyed.MayContainHash(HashString(s)) {
				t.Fatalf("blocked=%v: MayContainHash disagrees with MayContain on %q", keyed.Blocked(), s)
			}
		}
	}
}
