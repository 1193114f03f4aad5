// Package frametest holds the stream properties every message catalog
// framed by internal/frame keeps, written once and run by each catalog's
// fuzz target through its own decoder.
package frametest

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"learnedindex/internal/frame"
)

// Decode reads src through one frame.Reader, decoding every message with
// dec, until the first error, which it returns too.
func Decode[M any](src io.Reader, dec func(kind byte, payload []byte) (M, error)) ([]M, error) {
	in := frame.NewReader(src)
	var out []M
	for {
		kind, payload, err := in.Next()
		if err == nil {
			var m M
			if m, err = dec(kind, payload); err == nil {
				out = append(out, m)
				continue
			}
		}
		return out, err
	}
}

// CheckStream checks a stream that holds the encoded messages want followed
// by arbitrary bytes:
//   - decoding never panics, and yields want, bit-exactly, before anything
//     the trailing bytes decode to;
//   - reading it a byte at a time changes nothing: the same messages, then
//     the same error (frame's own fuzz target covers every other chunking);
//   - cut at cut, the stream decodes to a prefix of the full decode: a
//     half-received stream never yields a message the whole one does not;
//   - decoding allocates no more than one hostile length may claim
//     (frame.MaxPayload) plus a constant per stream byte.
func CheckStream[M any](t *testing.T, stream []byte, want []M, cut int,
	dec func(kind byte, payload []byte) (M, error), eq func(a, b M) bool) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Decode(bytes.NewReader(stream), dec)
	runtime.ReadMemStats(&after)
	if len(got) < len(want) || !slices.EqualFunc(got[:len(want)], want, eq) {
		t.Fatalf("decoded %d messages then %v: the first %d are not the intact ones", len(got), err, len(want))
	}
	if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(frame.MaxPayload+64*len(stream)+1<<20); n > bound {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(stream), n, bound)
	}
	bytewise, berr := Decode(iotest.OneByteReader(bytes.NewReader(stream)), dec)
	if !slices.EqualFunc(bytewise, got, eq) || fmt.Sprint(berr) != fmt.Sprint(err) {
		t.Fatalf("read a byte at a time: %d messages then %v; at once: %d then %v", len(bytewise), berr, len(got), err)
	}
	trunc, _ := Decode(bytes.NewReader(stream[:cut%(len(stream)+1)]), dec)
	if len(trunc) > len(got) || !slices.EqualFunc(trunc, got[:len(trunc)], eq) {
		t.Fatalf("cut at %d of %d: %d messages, not a prefix of the whole stream's %d", cut, len(stream), len(trunc), len(got))
	}
}
