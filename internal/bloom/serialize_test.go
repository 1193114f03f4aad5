package bloom

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
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

func TestFilterGoldenFormat(t *testing.T) {
	enc := buildGoldenFilter().AppendBinary(nil)
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != goldenFilterHash {
		t.Fatalf("bloom serialization format drifted:\n got %s\nwant %s\n"+
			"(an intentional change must bump the storage segment magic and this hash)", got, goldenFilterHash)
	}
}
