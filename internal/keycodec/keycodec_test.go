package keycodec

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"learnedindex/internal/binenc"
)

func TestPrefixOrderPreserving(t *testing.T) {
	keys := []string{
		"", "\x00", "\x00\x00", "a", "ab", "ab\x00", "abcdefgh", "abcdefghi",
		"abcdefghj", "abcdefgi", "zzzzzzzz~~~~", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
	}
	for _, a := range keys {
		for _, b := range keys {
			pa, pb := Prefix(a), Prefix(b)
			if a < b && pa > pb {
				t.Fatalf("order violated: %q < %q but prefix %#x > %#x", a, b, pa, pb)
			}
			if pa < pb && a >= b {
				t.Fatalf("prefix %#x < %#x but %q >= %q", pa, pb, a, b)
			}
		}
	}
}

func TestPrefixValues(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0},
		{"\x00", 0},
		{"a", 0x6100000000000000},
		{"abcdefgh", 0x6162636465666768},
		{"abcdefghZZZ", 0x6162636465666768},
		{"\xff\xff\xff\xff\xff\xff\xff\xff", ^uint64(0)},
		{"\xff\xff\xff\xff\xff\xff\xff", 0xffffffffffffff00},
		{"1234567", 0x3132333435363700},
		{"\x00\xff\x00\xff\x00\xff\x00\xff", 0x00ff00ff00ff00ff},
		{"\xff\x00\xff\x00\xff\x00\xff\x00\xff", 0xff00ff00ff00ff00},
		{"\x80\x00\x00\x00\x00\x00\x00\x01", 0x8000000000000001},
		{"d00-0000000000p", 0x6430302d30303030}, // a DocID
	}
	for _, c := range cases {
		if got := Prefix(c.in); got != c.want {
			t.Errorf("Prefix(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
	// Every length 0–16, over bytes that catch a lost shift or a sign
	// extension: NUL, 0xFF and a distinct byte per position.
	fill := map[string]func(i int) byte{
		"NUL":       func(int) byte { return 0x00 },
		"0xFF":      func(int) byte { return 0xff },
		"distinct":  func(i int) byte { return byte(0x11 * (i + 1)) },
		"NUL/0xFF":  func(i int) byte { return byte(0xff * (i & 1)) },
		"0xFF/NUL":  func(i int) byte { return byte(0xff * (1 - i&1)) },
		"high bits": func(i int) byte { return byte(0x80 | i) },
	}
	for name, b := range fill {
		for n := 0; n <= 16; n++ {
			key := make([]byte, n)
			for i := range key {
				key[i] = b(i)
			}
			if got, want := Prefix(string(key)), prefixRef(string(key)); got != want {
				t.Errorf("%s, length %d: Prefix(%q) = %#x, the byte loop gives %#x", name, n, key, got, want)
			}
		}
	}
}

// prefixRef is Prefix written as a byte loop over at most 8 bytes: the
// reference the one-load form must equal at every length.
func prefixRef(s string) uint64 {
	var v uint64
	for i := 0; i < len(s) && i < PrefixLen; i++ {
		v |= uint64(s[i]) << (56 - 8*uint(i))
	}
	return v
}

func TestCompositeOrdering(t *testing.T) {
	tuples := [][]string{
		{},
		{""},
		{"", ""},
		{"\x00"},
		{"a"},
		{"a", ""},
		{"a", "b"},
		{"a", "b\x00c"},
		{"a\x00"},
		{"ab"},
		{"ab", "a"},
		{"b"},
	}
	enc := make([]string, len(tuples))
	for i, tp := range tuples {
		enc[i] = Composite(tp...)
	}
	for i := range tuples {
		for j := range tuples {
			want := compareTuples(tuples[i], tuples[j])
			got := strings.Compare(enc[i], enc[j])
			if got != want {
				t.Errorf("tuple order mismatch: %q vs %q: enc %d, tuple %d",
					tuples[i], tuples[j], got, want)
			}
		}
	}
}

func compareTuples(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func TestCompositeRoundTrip(t *testing.T) {
	tuples := [][]string{
		{},
		{""},
		{"", "", ""},
		{"hello", "world"},
		{"nul\x00inside", "\x00", "\x00\x01\xff"},
		{"trailing\x00"},
	}
	for _, tp := range tuples {
		enc := Composite(tp...)
		got, err := SplitComposite(enc)
		if err != nil {
			t.Fatalf("SplitComposite(%q): %v", tp, err)
		}
		if len(got) != len(tp) {
			t.Fatalf("round trip %q: got %q", tp, got)
		}
		for i := range tp {
			if got[i] != tp[i] {
				t.Fatalf("round trip %q: got %q", tp, got)
			}
		}
	}
}

func TestSplitCompositeRejects(t *testing.T) {
	bad := []string{
		"\x00",         // truncated escape
		"abc",          // missing terminator
		"\x00\x02",     // invalid escape byte
		"a\x00\x01b",   // trailing un-terminated part
		"a\x00\xffzzz", // escaped NUL then no terminator
	}
	for _, s := range bad {
		if _, err := SplitComposite(s); err == nil {
			t.Errorf("SplitComposite(%q) accepted invalid input", s)
		}
	}
}

// mustBuild is BuildDict for key sets that fit a dictionary.
func mustBuild(t testing.TB, keys []string) ([]uint64, *Dict) {
	t.Helper()
	prefixes, d, err := BuildDict(keys)
	if err != nil {
		t.Fatal(err)
	}
	return prefixes, d
}

// allKeys materializes every key of d.
func allKeys(d *Dict) []string { return d.AppendKeys(nil, 0, d.Len()) }

// buildRandomKeys returns n sorted unique keys with a mix of collision-heavy
// shared prefixes, short keys, and embedded NULs.
func buildRandomKeys(rng *rand.Rand, n int) []string {
	set := make(map[string]struct{}, n)
	hosts := []string{"http://a.example/", "http://b.example/", "id:"}
	for len(set) < n {
		var s string
		switch rng.Intn(4) {
		case 0: // long shared prefix: guaranteed prefix collisions
			s = hosts[rng.Intn(len(hosts))] + fmt.Sprintf("%d", rng.Intn(1<<20))
		case 1: // short key (<8 bytes), may contain NUL
			b := make([]byte, rng.Intn(8))
			for i := range b {
				b[i] = byte(rng.Intn(256))
			}
			s = string(b)
		case 2: // exactly-8-byte random
			b := make([]byte, 8)
			rng.Read(b)
			s = string(b)
		default: // random length
			b := make([]byte, 1+rng.Intn(24))
			rng.Read(b)
			s = string(b)
		}
		set[s] = struct{}{}
	}
	keys := make([]string, 0, n)
	for s := range set {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	return keys
}

func TestBuildDictInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := buildRandomKeys(rng, 5000)
	prefixes, d := mustBuild(t, keys)

	if !sort.SliceIsSorted(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] }) {
		t.Fatal("prefixes not sorted")
	}
	for i := 1; i < len(prefixes); i++ {
		if prefixes[i] == prefixes[i-1] {
			t.Fatal("duplicate prefix in deduped array")
		}
	}
	if d.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(keys))
	}
	if got := len(prefixes) + d.NumCollisions(); got != len(keys) {
		t.Fatalf("prefixes+collisions = %d, want %d", got, len(keys))
	}
	// Start/Group must tile the key array exactly, with matching prefixes.
	pos := 0
	maxG := 0
	for pi, p := range prefixes {
		s, e := d.Group(pi)
		if s != pos {
			t.Fatalf("Group(%d) start = %d, want %d", pi, s, pos)
		}
		if e <= s {
			t.Fatalf("empty group %d", pi)
		}
		for k := s; k < e; k++ {
			if Prefix(keys[k]) != p {
				t.Fatalf("key %q in group of prefix %#x", keys[k], p)
			}
		}
		if e-s > maxG {
			maxG = e - s
		}
		pos = e
	}
	if pos != len(keys) {
		t.Fatalf("groups tile %d keys, want %d", pos, len(keys))
	}
	if d.Start(len(prefixes)) != len(keys) {
		t.Fatalf("Start(n) = %d, want %d", d.Start(len(prefixes)), len(keys))
	}
	if d.MaxGroup() != maxG {
		t.Fatalf("MaxGroup = %d, want %d", d.MaxGroup(), maxG)
	}
}

func TestDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 100, 3000} {
		keys := buildRandomKeys(rng, n)
		prefixes, d := mustBuild(t, keys)
		blob := d.AppendBinary(nil)
		if d.EncodedLen() != len(blob) {
			t.Fatalf("n=%d: EncodedLen %d, encoding is %d bytes", n, d.EncodedLen(), len(blob))
		}
		got, err := DecodeDict(binenc.NewReader(blob), prefixes)
		if err != nil {
			t.Fatalf("n=%d: DecodeDict: %v", n, err)
		}
		if got.Len() != len(keys) {
			t.Fatalf("n=%d: decoded %d keys", n, got.Len())
		}
		for i, s := range allKeys(got) {
			if s != keys[i] {
				t.Fatalf("n=%d: key %d = %q, want %q", n, i, s, keys[i])
			}
		}
		if got.MaxGroup() != d.MaxGroup() {
			t.Fatalf("n=%d: MaxGroup %d vs %d", n, got.MaxGroup(), d.MaxGroup())
		}
		// Deterministic serialization.
		if !bytes.Equal(blob, got.AppendBinary(nil)) {
			t.Fatalf("n=%d: re-serialization differs", n)
		}
	}
}

func TestDecodeDictRejectsCorruption(t *testing.T) {
	keys := []string{"aa", "aardvark1", "aardvark2", "bb", "cc"}
	sort.Strings(keys)
	prefixes, d := mustBuild(t, keys)
	blob := d.AppendBinary(nil)

	// Truncations at every length must error, never panic.
	for i := 0; i < len(blob); i++ {
		if _, err := DecodeDict(binenc.NewReader(blob[:i]), prefixes); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage is the caller's problem (Remaining check), but every
	// single-byte flip must either error or decode to a dict with validated
	// invariants (sorted keys, matching prefixes).
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xA5
		got, err := DecodeDict(binenc.NewReader(mut), prefixes)
		if err != nil {
			continue
		}
		strs := allKeys(got)
		for k, s := range strs {
			if k > 0 && strs[k-1] >= s {
				t.Fatalf("flip at %d produced unsorted keys", i)
			}
			_ = Prefix(s)
		}
	}
	// Wrong prefix array: decoder must reject.
	wrong := append([]uint64(nil), prefixes...)
	wrong[0] ^= 1
	if _, err := DecodeDict(binenc.NewReader(blob), wrong); err == nil {
		t.Fatal("mismatched prefix array accepted")
	}
}
