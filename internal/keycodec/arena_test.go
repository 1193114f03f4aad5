package keycodec

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"learnedindex/internal/binenc"
)

// arenaKeySets is the fixture of the arena tests: the key shapes whose
// exact length or order the prefix alone cannot carry.
func arenaKeySets() map[string][]string {
	rng := rand.New(rand.NewSource(21))
	sets := map[string][]string{
		"short":     {"", "a", "ab", "abc", "abcdefg", "b", "zzzzzzz"},
		"nul-tails": {"", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00", "abcdefgh", "abcdefgh\x00", "abcdefgh\x00\x00"},
		"exactly-8": {"abcdefg", "abcdefgh", "abcdefgha", "abcdefgi", "ijklmnop"},
		"one":       {"only-one-key"},
	}
	var comp []string
	for _, a := range []string{"", "a", "a\x00", "a\x00b", "tenant\x00\x00"} {
		for _, b := range []string{"", "\x00", "attr", "attr\x00x"} {
			comp = append(comp, Composite(a, b))
		}
	}
	sets["composite"] = comp
	var group []string
	for i := 0; i < 100; i++ {
		group = append(group, fmt.Sprintf("http://x/%03d", i))
	}
	sets["giant-group"] = append(group, "http://w", "http://x", "http://y/0")
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	var docs []string
	for i := 0; i < 3000; i++ {
		b := []byte("d00-00000000000")
		c := rng.Intn(64)
		b[1], b[2] = digits[c/36], digits[c%36]
		for j := 4; j < 14; j++ {
			b[j] = digits[rng.Intn(36)]
		}
		if i%3 == 0 {
			copy(b[4:8], "0000") // bursts: shared 8-byte prefixes
		}
		docs = append(docs, string(b))
	}
	sets["docids"] = docs
	for name, ks := range sets {
		sort.Strings(ks)
		sets[name] = slices.Compact(ks)
	}
	return sets
}

// arenaGolden pins the serialized dictionary of every fixture set: the
// hashes were taken from the encoder that held its keys as []string, so the
// arena is the same bytes on disk.
var arenaGolden = map[string]string{
	"composite":   "06c001971a22aa4bf6ad305d8637d880aec467018f14d0d8821aacff947f6b8e",
	"docids":      "e8c4c68dc9dff60e6cec5f3a207a49a3e6b39f4ec1a51602c384a04baa5fdb18",
	"exactly-8":   "5d58f8d8b2cd997eee2e01bc803bf2e5f8bfc8a8c8d788ee6d6de420744cef12",
	"giant-group": "bc31a0898e5036e7483638f7b728b127274428ea4d04c108794d9cfbe29ac86f",
	"nul-tails":   "6eda1a5ee4351eadebf16a9b7bb2b74e8d54b2ac11aa8243dcb7e6f75ab3a21a",
	"one":         "70e8ca348490bdcc48e6dca0eff79830ecd6ba92d41b479ef176002b5554c17a",
	"short":       "270e81cd6d0478992106b003ecd94ba6d8ed77edf859b38cad1dbc036d0a033f",
}

// TestDictArenaGolden: BuildDict → AppendBinary → DecodeDict → AppendBinary
// is byte-identical to the pinned encoding, and both the built and the
// decoded dictionary give back exactly the keys.
func TestDictArenaGolden(t *testing.T) {
	for name, keys := range arenaKeySets() {
		prefixes, d := mustBuild(t, keys)
		enc := d.AppendBinary(nil)
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != arenaGolden[name] {
			t.Errorf("%s: encoding hash %s, golden %s", name, got, arenaGolden[name])
		}
		if d.EncodedLen() != len(enc) {
			t.Errorf("%s: EncodedLen %d, encoded %d bytes", name, d.EncodedLen(), len(enc))
		}
		dec, err := DecodeDict(binenc.NewReader(enc), prefixes)
		if err != nil {
			t.Fatalf("%s: DecodeDict: %v", name, err)
		}
		if !slices.Equal(dec.AppendBinary(nil), enc) {
			t.Errorf("%s: decoded dictionary re-encodes differently", name)
		}
		for _, got := range []*Dict{d, dec} {
			if !slices.Equal(allKeys(got), keys) {
				t.Fatalf("%s: keys differ after the arena", name)
			}
			if got.Min() != keys[0] || got.Max() != keys[len(keys)-1] {
				t.Errorf("%s: fence [%q, %q]", name, got.Min(), got.Max())
			}
			if got.MaxGroup() != d.MaxGroup() || got.NumCollisions() != d.NumCollisions() {
				t.Errorf("%s: directory differs after decode", name)
			}
		}
	}
	if g := arenaKeySets()["giant-group"]; len(g) < 64 {
		t.Fatalf("fixture: giant group has %d keys", len(g))
	}
}

// TestDictFindOracle holds Find and AppendKeys to the []string
// they replaced: for stored keys, their neighbours in byte order, and
// probes below, above and between the keys, Find given the prefix's lower
// bound equals sort.SearchStrings, and every key and sub-run materializes
// exactly.
func TestDictFindOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := arenaKeySets()
	sets["random"] = buildRandomKeys(rng, 3000)
	for name, keys := range sets {
		prefixes, d := mustBuild(t, keys)
		probes := []string{"", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
		for _, k := range keys {
			probes = append(probes, k, k+"\x00", k+"zz")
			if len(k) > 0 {
				probes = append(probes, k[:len(k)-1], k[:len(k)/2])
			}
		}
		for _, p := range probes {
			pfx := Prefix(p)
			pi := sort.Search(len(prefixes), func(i int) bool { return prefixes[i] >= pfx })
			want := sort.SearchStrings(keys, p)
			stored := want < len(keys) && keys[want] == p
			if pos, found := d.Find(p, pfx, pi); pos != want || found != stored {
				t.Fatalf("%s: Find(%q) = %d, %v; want %d, %v", name, p, pos, found, want, stored)
			}
		}
		for i, k := range keys {
			if got := d.AppendKeys(nil, i, i+1); len(got) != 1 || got[0] != k {
				t.Fatalf("%s: key %d = %q, want %q", name, i, got, k)
			}
		}
		for trial := 0; trial < 200; trial++ {
			lo := rng.Intn(len(keys) + 1)
			hi := lo + rng.Intn(len(keys)+1-lo)
			got := d.AppendKeys([]string{"kept"}, lo, hi)
			if got[0] != "kept" || !slices.Equal(got[1:], keys[lo:hi]) {
				t.Fatalf("%s: AppendKeys(%d, %d) differs", name, lo, hi)
			}
		}
	}
}

// TestDictArenaAllocs: decoding a dictionary costs the same handful of
// allocations whatever its key count, and materializing a page into a
// reused slice costs one — the page's bytes.
func TestDictArenaAllocs(t *testing.T) {
	decodeAllocs := func(n int) float64 {
		keys := buildRandomKeys(rand.New(rand.NewSource(9)), n)
		for i := 0; i < len(keys); i += 2 { // long suffixes among the short
			keys[i] += "/a/suffix/longer/than/any/stack/buffer/of/the/runtime"
		}
		sort.Strings(keys)
		prefixes, d := mustBuild(t, keys)
		enc := d.AppendBinary(nil)
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeDict(binenc.NewReader(enc), prefixes); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := decodeAllocs(100), decodeAllocs(20_000)
	if small > 12 || large > 12 {
		t.Fatalf("DecodeDict: %.0f allocations for 100 keys, %.0f for 20000", small, large)
	}
	_, d := mustBuild(t, buildRandomKeys(rand.New(rand.NewSource(9)), 5000))
	page := make([]string, 0, 256)
	if got := testing.AllocsPerRun(50, func() { page = d.AppendKeys(page[:0], 1000, 1256) }); got > 1 {
		t.Fatalf("AppendKeys of one page into a reused slice: %.0f allocations", got)
	}
}
