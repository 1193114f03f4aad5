package bloom

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"learnedindex/internal/binenc"
)

// goldenFilterHash pins the serialized format of the fixed-seed filter
// below. If an intentional format change lands, re-run with -update-golden
// logic in mind: regenerate by reading the failure message — but remember
// that existing segment files become unreadable, so bump the segment magic
// alongside any change here.
const goldenFilterHash = "e97dadcdf84454cf35ea492011df866c9f17171c2860af97944790886c8ca5b5"

func buildGoldenFilter() *Filter {
	rng := rand.New(rand.NewSource(42))
	f := NewWithSize(1<<12, 5)
	for i := 0; i < 500; i++ {
		f.AddUint64(rng.Uint64())
	}
	for i := 0; i < 100; i++ {
		f.Add(string(rune('a'+i%26)) + "key")
	}
	return f
}

func TestFilterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := New(10_000, 0.01)
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = rng.Uint64()
		f.AddUint64(keys[i])
	}
	enc := f.AppendBinary(nil)
	g, err := Decode(binenc.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if g.Bits() != f.Bits() || g.K() != f.K() || g.Count() != f.Count() {
		t.Fatalf("header mismatch: got (%d,%d,%d) want (%d,%d,%d)",
			g.Bits(), g.K(), g.Count(), f.Bits(), f.K(), f.Count())
	}
	// Identical membership, positive and probing: the decoded filter must
	// answer exactly like the original on members and arbitrary probes.
	for _, k := range keys {
		if !g.MayContainUint64(k) {
			t.Fatalf("decoded filter lost member %d", k)
		}
	}
	for i := 0; i < 50_000; i++ {
		k := rng.Uint64()
		if f.MayContainUint64(k) != g.MayContainUint64(k) {
			t.Fatalf("membership diverged on probe %d", k)
		}
	}
}

func TestFilterGoldenFormat(t *testing.T) {
	enc := buildGoldenFilter().AppendBinary(nil)
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != goldenFilterHash {
		t.Fatalf("bloom serialization format drifted:\n got %s\nwant %s\n"+
			"(an intentional change must bump the storage segment magic and this hash)", got, goldenFilterHash)
	}
}

func TestFilterDecodeCorrupt(t *testing.T) {
	enc := buildGoldenFilter().AppendBinary(nil)
	for _, trunc := range []int{0, 1, 2, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(binenc.NewReader(enc[:trunc])); err == nil {
			t.Errorf("truncation at %d decoded without error", trunc)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0 // m = 0 < 64
	if _, err := Decode(binenc.NewReader(bad)); err == nil {
		t.Error("m=0 decoded without error")
	}
	// A near-2^64 m must be rejected before (m+63)/64 wraps to zero words
	// and the filter panics on its first probe.
	huge := binenc.AppendUvarint(nil, ^uint64(0)-10)
	huge = binenc.AppendUvarint(huge, 5)
	huge = binenc.AppendUvarint(huge, 1)
	if f, err := Decode(binenc.NewReader(huge)); err == nil {
		f.MayContainUint64(42) // would panic without the bound
		t.Error("m near 2^64 decoded without error")
	}
}

// TestBlockedDecodeCorrupt: the register-blocked layout that segment files
// written before segments dropped their filters carry — tag 1, then m, k,
// n and the words — is not a standard filter, and Decode rejects it rather
// than misreading it as one.
func TestBlockedDecodeCorrupt(t *testing.T) {
	const blockedTag = 1
	enc := binenc.AppendUvarint(nil, blockedTag)
	enc = binenc.AppendUvarint(enc, 512)
	enc = binenc.AppendUvarint(enc, 7)
	enc = binenc.AppendUvarint(enc, 1)
	enc = append(enc, make([]byte, 64)...)
	if _, err := Decode(binenc.NewReader(enc)); err == nil {
		t.Fatal("a blocked-layout encoding decoded as a standard filter")
	}
}
