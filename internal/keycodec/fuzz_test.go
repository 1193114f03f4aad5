package keycodec

import (
	"bytes"
	"sort"
	"testing"

	"learnedindex/internal/binenc"
)

// FuzzPrefixOrder differentially checks the codec's core contract: prefix
// ordering agrees with bytes.Compare on the raw keys — Prefix never inverts
// an order, and a strict prefix inequality implies the same strict key
// inequality — and that the one-load Prefix equals the byte loop.
func FuzzPrefixOrder(f *testing.F) {
	f.Add([]byte("a"), []byte("ab"))
	f.Add([]byte(""), []byte("\x00"))
	f.Add([]byte("abcdefgh"), []byte("abcdefghZ"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00"), []byte("\x00\x00\x00\x00\x00\x00\x00\x00\xff"))
	f.Add([]byte("\xff\x00\xff\x00\xff\x00\xff\x00"), []byte("\x00\xff\x00\xff\x00\xff\x00\xff\x00"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, sb := string(a), string(b)
		pa, pb := Prefix(sa), Prefix(sb)
		if ra := prefixRef(sa); pa != ra {
			t.Fatalf("Prefix(%q) = %#x, the byte loop gives %#x", a, pa, ra)
		}
		switch bytes.Compare(a, b) {
		case -1:
			if pa > pb {
				t.Fatalf("a<b but Prefix(a)>Prefix(b): %q %q", a, b)
			}
		case 1:
			if pa < pb {
				t.Fatalf("a>b but Prefix(a)<Prefix(b): %q %q", a, b)
			}
		default:
			if pa != pb {
				t.Fatalf("a==b but prefixes differ: %q", a)
			}
		}
		if pa < pb && sa >= sb {
			t.Fatalf("Prefix(a)<Prefix(b) but a>=b: %q %q", a, b)
		}
	})
}

// FuzzCompositeOrder checks that the composite tuple encoding is
// order-preserving and round-trips losslessly for arbitrary parts,
// including NULs and escape bytes.
func FuzzCompositeOrder(f *testing.F) {
	f.Add([]byte("a"), []byte("b"), []byte("ab"), []byte(""))
	f.Add([]byte{0}, []byte{0, 1}, []byte{0, 0xff}, []byte{1})
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2 []byte) {
		ta := []string{string(a1), string(a2)}
		tb := []string{string(b1), string(b2)}
		ea, eb := Composite(ta...), Composite(tb...)
		want := compareTuples(ta, tb)
		if got := bytes.Compare([]byte(ea), []byte(eb)); got != want {
			t.Fatalf("encoding order %d, tuple order %d: %q vs %q", got, want, ta, tb)
		}
		ra, err := SplitComposite(ea)
		if err != nil || len(ra) != 2 || ra[0] != ta[0] || ra[1] != ta[1] {
			t.Fatalf("round trip failed: %q -> %q (%v)", ta, ra, err)
		}
	})
}

// FuzzDictRoundTrip builds a dictionary from fuzzer-derived keys, encodes
// it, decodes it, and requires a lossless round trip.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte("alpha\x00beta\x00b\x00prefix_collide_1\x00prefix_collide_2"))
	f.Add([]byte(""))
	f.Add([]byte("\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		parts := bytes.Split(raw, []byte{0})
		set := make(map[string]struct{}, len(parts))
		for _, p := range parts {
			set[string(p)] = struct{}{}
		}
		keys := make([]string, 0, len(set))
		for s := range set {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		prefixes, d := mustBuild(t, keys)
		blob := d.AppendBinary(nil)
		got, err := DecodeDict(binenc.NewReader(blob), prefixes)
		if err != nil {
			t.Fatalf("decode of freshly encoded dict: %v", err)
		}
		if got.Len() != len(keys) {
			t.Fatalf("decoded %d keys, want %d", got.Len(), len(keys))
		}
		for i, s := range allKeys(got) {
			if s != keys[i] {
				t.Fatalf("key %d: %q != %q", i, s, keys[i])
			}
		}
	})
}

// FuzzDictDecode throws arbitrary bytes at the decoder (same style as
// storage's FuzzSegmentDecode): it must never panic, and on success the
// resulting dict must satisfy the codec invariants against the supplied
// prefix array.
func FuzzDictDecode(f *testing.F) {
	keys := []string{"aa", "aardvark1", "aardvark2", "bb"}
	prefixes, d := mustBuild(f, keys)
	f.Add(d.AppendBinary(nil), uint64(len(prefixes)))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint64(3))
	f.Fuzz(func(t *testing.T, blob []byte, nPfx uint64) {
		n := int(nPfx % 64)
		pfx := make([]uint64, n)
		for i := range pfx {
			pfx[i] = uint64(i) << 40 // sorted, unique
		}
		got, err := DecodeDict(binenc.NewReader(blob), pfx)
		if err != nil {
			return
		}
		if got.Len() < len(pfx) {
			t.Fatalf("accepted dict with %d keys for %d prefixes", got.Len(), len(pfx))
		}
		strs := allKeys(got)
		for i := 1; i < len(strs); i++ {
			if strs[i-1] >= strs[i] {
				t.Fatal("accepted unsorted dict")
			}
		}
		for pi := range pfx {
			s, e := got.Group(pi)
			if s >= e || e > len(strs) {
				t.Fatalf("bad group [%d,%d) for prefix %d", s, e, pi)
			}
			for k := s; k < e; k++ {
				if Prefix(strs[k]) != pfx[pi] {
					t.Fatal("accepted prefix mismatch")
				}
			}
		}
	})
}
