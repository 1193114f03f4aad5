package binenc

import (
	"slices"
	"testing"
)

// TestKeyPayloads: the key grammar concatenates its lists under one count,
// decodes back exactly, and refuses a count its bytes cannot hold or its
// caller's bound forbids before allocating for it.
func TestKeyPayloads(t *testing.T) {
	u := AppendUvarints(nil, []uint64{0, 127}, nil, []uint64{128, 1<<64 - 1})
	if got := NewReader(u).Uvarints(nil, 4); !slices.Equal(got, []uint64{0, 127, 128, 1<<64 - 1}) {
		t.Fatalf("uint64 keys decoded as %v", got)
	}
	s := AppendStrings(nil, []string{"", "a"}, []string{string(make([]byte, 300))})
	r := NewReader(s)
	if got := r.Strings([]string{"kept"}, 3); r.Err() != nil || r.Remaining() != 0 ||
		!slices.Equal(got, []string{"kept", "", "a", string(make([]byte, 300))}) {
		t.Fatalf("string keys decoded as %q (%v)", got, r.Err())
	}
	for name, dec := range map[string]func(*Reader) int{
		"uvarints": func(r *Reader) int { return cap(r.Uvarints(nil, 1<<30)) },
		"strings":  func(r *Reader) int { return cap(r.Strings(nil, 1<<30)) },
	} {
		r := NewReader([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2})
		if n := dec(r); r.Err() == nil || n != 0 {
			t.Fatalf("%s: a count past the input decoded with capacity %d (%v)", name, n, r.Err())
		}
	}
	if r := NewReader(u); r.Uvarints(nil, 3) != nil || r.Err() == nil {
		t.Fatal("a count past the caller's bound decoded")
	}
}

func TestBool(t *testing.T) {
	b := AppendBool(AppendBool(nil, true), false)
	r := NewReader(append(b, 2))
	if !r.Bool() || r.Bool() || r.Err() != nil {
		t.Fatal("0/1 bytes did not decode as false/true")
	}
	if r.Bool() || r.Err() == nil {
		t.Fatal("byte 2 decoded as a bool")
	}
}
