package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"learnedindex/internal/keycodec"
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

// TestStringIndexTieBreakModel forces the StringRMI path with a key set
// whose collision groups exceed srmiMaxGroup, and checks exactness there
// too — the clamp contract documented in stringrmi.go.
func TestStringIndexTieBreakModel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	set := make(map[string]struct{}, 12000)
	// One shared 8-byte head -> every key collides into few giant groups.
	for len(set) < 12000 {
		set[fmt.Sprintf("http://%c/%06d", 'a'+rng.Intn(4), rng.Intn(1<<20))] = struct{}{}
	}
	keys := make([]string, 0, len(set))
	for s := range set {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	si := NewStringIndex(keys, DefaultConfig(32))
	if !si.HasTieBreakModel() {
		t.Fatal("collision-heavy key set did not train a StringRMI tie-break model")
	}
	checkStringIndexOracle(t, si, keys, rng)
}

// TestAssembleStringIndex mirrors the segment-open path: rebuild from a
// decoded RMI + dictionary, never training, and require identical answers.
func TestAssembleStringIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := stringIndexKeys(rng, 8000)
	prefixes, dict := keycodec.BuildDict(keys)
	rmi := New(prefixes, DefaultConfig(32))
	si := AssembleStringIndex(rmi, dict)
	if si.HasTieBreakModel() {
		t.Fatal("AssembleStringIndex must not train a tie-break model")
	}
	checkStringIndexOracle(t, si, keys, rng)
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
// to per-key StringIndex.Lookup: singleton and collision groups, the
// StringRMI tie-break, an assembled (never-trained) index, keys shorter
// than the prefix, an empty index, probes sent to indexes that never stored
// them, the nil selector, and batch sizes around the tile width.
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
	prefixes, dict := keycodec.BuildDict(asmKeys)
	keysets := [][]string{mixed, heavy, short, asmKeys, nil}
	indexes := []*StringIndex{
		NewStringIndex(mixed, DefaultConfig(64)),
		NewStringIndex(heavy, DefaultConfig(32)),
		NewStringIndex(short, DefaultConfig(4)),
		AssembleStringIndex(New(prefixes, DefaultConfig(32)), dict),
		NewStringIndex(nil, DefaultConfig(16)),
	}
	if !indexes[1].HasTieBreakModel() || indexes[0].Dict().NumCollisions() == 0 {
		t.Fatal("setup: no tie-break model or no collision group to resolve")
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
