package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"learnedindex/internal/binenc"
	"learnedindex/internal/keycodec"
	"learnedindex/internal/scan"
)

// stringIndexKeys builds a sorted unique key set with heavy shared-prefix
// collisions (URL-style) plus scattered short and random keys.
func stringIndexKeys(rng *rand.Rand, n int) []string {
	set := make(map[string]struct{}, n)
	for len(set) < n {
		switch rng.Intn(3) {
		case 0:
			set[fmt.Sprintf("http://example.com/page/%07d", rng.Intn(1<<22))] = struct{}{}
		case 1:
			set[fmt.Sprintf("u%d", rng.Intn(1<<20))] = struct{}{}
		default:
			b := make([]byte, 3+rng.Intn(20))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			set[string(b)] = struct{}{}
		}
	}
	keys := make([]string, 0, n)
	for s := range set {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	return keys
}

func checkStringIndexOracle(t *testing.T, si *StringIndex, keys []string, rng *rand.Rand) {
	t.Helper()
	probeSet := make([]string, 0, 4000)
	for i := 0; i < 1000; i++ {
		k := keys[rng.Intn(len(keys))]
		probeSet = append(probeSet, k, k+"\x00", k[:len(k)-1], k+"zz")
	}
	probeSet = append(probeSet, "", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff")
	for _, p := range probeSet {
		want := sort.SearchStrings(keys, p)
		if got := si.Lookup(p); got != want {
			t.Fatalf("Lookup(%q) = %d, want %d", p, got, want)
		}
		if gotC := si.Contains(p); gotC != (want < len(keys) && keys[want] == p) {
			t.Fatalf("Contains(%q) = %v, want %v", p, gotC, !gotC)
		}
	}
	for i := 0; i < 500; i++ {
		a := probeSet[rng.Intn(len(probeSet))]
		b := probeSet[rng.Intn(len(probeSet))]
		if a > b {
			a, b = b, a
		}
		s, e := si.RangeScan(a, b)
		ws, we := sort.SearchStrings(keys, a), sort.SearchStrings(keys, b)
		if we < ws {
			we = ws
		}
		if s != ws || e != we {
			t.Fatalf("RangeScan(%q, %q) = [%d,%d), want [%d,%d)", a, b, s, e, ws, we)
		}
	}
}

func TestStringIndexLookupOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := stringIndexKeys(rng, 20000)
	si := NewStringIndex(keys, DefaultConfig(64))
	if si.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", si.Len(), len(keys))
	}
	checkStringIndexOracle(t, si, keys, rng)
}

// heavyKeys is a key set of a few giant prefix-collision groups: one shared
// 8-byte head, so every tie is broken inside a group of thousands.
func heavyKeys(rng *rand.Rand, n int) []string {
	set := make(map[string]struct{}, n)
	for len(set) < n {
		set[fmt.Sprintf("http://%c/%06d", 'a'+rng.Intn(4), rng.Intn(1<<20))] = struct{}{}
	}
	keys := make([]string, 0, len(set))
	for s := range set {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	return keys
}

// TestStringIndexTieBreakModel pins exactness where the whole answer is the
// tie-break: collision groups far past any small-group bound, resolved by
// the search over the dictionary's contiguous suffix bytes.
func TestStringIndexTieBreakModel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	keys := heavyKeys(rng, 12000)
	si := NewStringIndex(keys, DefaultConfig(32))
	if si.Dict().MaxGroup() < 1000 || len(si.Prefixes()) > 8 {
		t.Fatalf("setup: %d prefixes, largest group %d", len(si.Prefixes()), si.Dict().MaxGroup())
	}
	checkStringIndexOracle(t, si, keys, rng)
}

// TestAssembleStringIndex mirrors the segment-open path: rebuild from a
// serialized RMI + dictionary, never training, and require the answers —
// and the structure — of the index that was trained in memory.
func TestAssembleStringIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, keys := range [][]string{stringIndexKeys(rng, 8000), heavyKeys(rng, 6000)} {
		trained := NewStringIndex(keys, DefaultConfig(32))
		rb, err := trained.RMI().AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		rmi, err := DecodeRMI(rb, slices.Clone(trained.Prefixes()))
		if err != nil {
			t.Fatal(err)
		}
		dict, err := keycodec.DecodeDict(binenc.NewReader(trained.Dict().AppendBinary(nil)), rmi.Keys())
		if err != nil {
			t.Fatal(err)
		}
		si := AssembleStringIndex(rmi, dict)
		checkStringIndexOracle(t, si, keys, rng)
		for i := 0; i < 2000; i++ {
			p := keys[rng.Intn(len(keys))] + string(rune('a'+rng.Intn(3)))
			if got, want := si.Lookup(p), trained.Lookup(p); got != want {
				t.Fatalf("Lookup(%q): reopened %d, trained %d", p, got, want)
			}
		}
	}
}

func TestStringIndexEmpty(t *testing.T) {
	si := NewStringIndex(nil, DefaultConfig(16))
	if si.Len() != 0 || si.Lookup("x") != 0 || si.Contains("x") {
		t.Fatal("empty index misbehaves")
	}
	s, e := si.RangeScan("a", "b")
	if s != 0 || e != 0 {
		t.Fatal("empty RangeScan misbehaves")
	}
}

// TestLookupBatchStringsOracle pins the string batch kernel bit-identical
// to per-key StringIndex.Lookup: singleton and collision groups, giant
// groups, an assembled (never-trained) index, keys shorter than the prefix,
// an empty index, probes sent to indexes that never stored them, the nil
// selector, and batch sizes around the tile width — and to
// sort.SearchStrings over each index's own keys.
func TestLookupBatchStringsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	mixed := stringIndexKeys(rng, 20000)
	var heavy []string
	for i := 0; i < 12000; i++ {
		heavy = append(heavy, fmt.Sprintf("http://%c/%06d", 'a'+i%4, i*7))
	}
	sort.Strings(heavy)
	short := []string{"", "\x00", "\x00\x00", "a", "a\x00", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00", "b"}
	asmKeys := stringIndexKeys(rng, 8000)
	prefixes, dict, err := keycodec.BuildDict(asmKeys)
	if err != nil {
		t.Fatal(err)
	}
	keysets := [][]string{mixed, heavy, short, asmKeys, nil}
	indexes := []*StringIndex{
		NewStringIndex(mixed, DefaultConfig(64)),
		NewStringIndex(heavy, DefaultConfig(32)),
		NewStringIndex(short, DefaultConfig(4)),
		AssembleStringIndex(New(prefixes, DefaultConfig(32)), dict),
		NewStringIndex(nil, DefaultConfig(16)),
	}
	if indexes[1].Dict().MaxGroup() < 1000 || indexes[0].Dict().NumCollisions() == 0 {
		t.Fatal("setup: no giant group or no collision group to resolve")
	}
	keysOf := make(map[*StringIndex][]string, len(indexes))
	for j, si := range indexes {
		keysOf[si] = keysets[j]
	}
	probesFor := func(n int) (probes []string, sel []int32) {
		for len(probes) < n {
			from := rng.Intn(len(keysets) - 1) // a key set that has keys
			k := keysets[from][rng.Intn(len(keysets[from]))]
			switch rng.Intn(5) {
			case 0:
				k += "\x00"
			case 1:
				k = k[:len(k)/2]
			case 2:
				k += "zz"
			}
			to := from
			if rng.Intn(4) == 0 {
				to = rng.Intn(len(keysets)) // another index's key, or the empty index
			}
			probes, sel = append(probes, k), append(sel, int32(to))
		}
		return probes, sel
	}
	check := func(name string, idx []*StringIndex, sel []int32, probes []string) {
		t.Helper()
		got := make([]int, len(probes))
		for i := range got {
			got[i] = -1
		}
		LookupBatchStrings(idx, sel, probes, got)
		for i, k := range probes {
			si := idx[0]
			if sel != nil {
				si = idx[sel[i]]
			}
			if want := si.Lookup(k); got[i] != want {
				t.Fatalf("%s: probe %d (%q): batch = %d, Lookup = %d", name, i, k, got[i], want)
			}
			if want := sort.SearchStrings(keysOf[si], k); got[i] != want {
				t.Fatalf("%s: probe %d (%q): batch = %d, sort.SearchStrings = %d", name, i, k, got[i], want)
			}
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		probes, sel := probesFor(n)
		check(fmt.Sprintf("multi-index/%d", n), indexes, sel, probes)
		for j := range indexes {
			check(fmt.Sprintf("index %d, nil selector/%d", j, n), indexes[j:j+1], nil, probes)
		}
	}
	edge := []string{"", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff", "http://", "http://a", "http://a/", "abcdefgh", "abcdefg"}
	for j := range indexes {
		check(fmt.Sprintf("index %d, edge probes", j), indexes[j:j+1], nil, edge)
	}
}

// TestStringCursor: the dictionary cursor streams exactly what iterating
// the original []string would, under Seek, Next and the iterator's
// NextBatch, with the reads cut at every page edge — a Seek that lands on
// the last key of a page, a batch that ends one short of one, a run that
// crosses several.
func TestStringCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for name, keys := range map[string][]string{
		"mixed": stringIndexKeys(rng, 3000),
		"heavy": heavyKeys(rng, 2000),
		"short": {"", "\x00", "\x00\x00", "a", "a\x00", "ab", "abcdefg", "abcdefgh", "abcdefgh\x00", "b"},
		"one":   {"only"},
	} {
		si := NewStringIndex(keys, DefaultConfig(16))
		var c StringCursor
		c.Reset(si)
		if !c.Seek("") {
			t.Fatalf("%s: Seek(\"\") found nothing", name)
		}
		for i, want := range keys {
			if got := c.Key(); got != want {
				t.Fatalf("%s: walk[%d] = %q, want %q", name, i, got, want)
			}
			if adv := c.Next(); adv != (i+1 < len(keys)) {
				t.Fatalf("%s: Next at %d = %v", name, i, adv)
			}
		}
		// Seeks: every page edge a fresh cursor would have, and random keys
		// and non-keys, each followed by a short walk.
		var starts []int
		for at, size := 0, stringPageMin; at < len(keys); at, size = at+size, min(2*size, stringPageMax) {
			starts = append(starts, at-1, at, at+1)
		}
		for i := 0; i < 300; i++ {
			starts = append(starts, rng.Intn(len(keys)))
		}
		for _, at := range starts {
			if at < 0 || at >= len(keys) {
				continue
			}
			for _, probe := range []string{keys[at], keys[at] + "\x00", keys[at][:len(keys[at])/2]} {
				want := sort.SearchStrings(keys, probe)
				if ok := c.Seek(probe); ok != (want < len(keys)) {
					t.Fatalf("%s: Seek(%q) = %v at %d of %d", name, probe, ok, want, len(keys))
				}
				for step := 0; want+step < len(keys) && step < 40; step++ {
					if got := c.Key(); got != keys[want+step] {
						t.Fatalf("%s: Seek(%q)+%d = %q, want %q", name, probe, step, got, keys[want+step])
					}
					c.Next()
				}
			}
		}
		c.Release()

		// Through the iterator: NextBatch sizes that straddle the pages.
		for _, batch := range []int{1, stringPageMin - 1, stringPageMin, stringPageMin + 1, 100, stringPageMax + 1} {
			it := scan.Get[string]()
			c.Reset(si)
			it.Add(&c)
			it.StartFrom("", nil)
			var got []string
			buf := make([]string, batch)
			for {
				n := it.NextBatch(buf)
				got = append(got, buf[:n]...)
				if n < batch {
					break
				}
			}
			it.Close()
			if !slices.Equal(got, keys) {
				t.Fatalf("%s: NextBatch(%d) streamed %d keys, want %d", name, batch, len(got), len(keys))
			}
		}
	}
}

// TestStringCursorPageAllocs: a scan allocates once per page it reads, not
// once per key.
func TestStringCursorPageAllocs(t *testing.T) {
	keys := stringIndexKeys(rand.New(rand.NewSource(15)), 4000)
	si := NewStringIndex(keys, DefaultConfig(32))
	var c StringCursor
	c.Reset(si)
	c.Seek("")
	for c.Next() { // grow the page to its full size once
	}
	const read = 3 * stringPageMax
	pages := 0
	for at, size := 0, stringPageMin; at < read; at, size = at+size, min(2*size, stringPageMax) {
		pages++
	}
	got := testing.AllocsPerRun(20, func() {
		c.Reset(si)
		c.Seek("")
		for i := 1; i < read; i++ {
			c.Next()
		}
	})
	if got > float64(pages) {
		t.Fatalf("reading %d keys: %.0f allocations over %d pages", read, got, pages)
	}
}
