package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"learnedindex/internal/binenc"
)

// TestWALFrameBytesUnchanged pins every byte the write plane puts in a log.
// For each key mode it drives a fixed sequence through the public API — an
// Append larger than one record, several sequential Commits, one oversized
// Commit — and compares the live log with a reference built here from the
// 8-byte len|crc32c header and the key payload grammar: one frame per
// record-sized chunk of the Append, one per Commit (a lone committer is a
// cohort of one), and the oversized Commit chunked like an Append. Past the
// last frame the reserved tail reads as zero.
func TestWALFrameBytesUnchanged(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		keys := func(n int, seed uint64) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				// Spread over every varint width, repeats and zero included.
				out[i] = (uint64(i) * 0x9e3779b97f4a7c15 >> (uint(i+int(seed)) % 64)) ^ seed
			}
			return out
		}
		big := keys(maxAppendChunk+1000, 1)
		commits := [][]uint64{keys(3, 2), keys(1, 3), keys(700, 4)}
		huge := keys(2*maxAppendChunk+7, 5)

		var want []byte
		for _, chunk := range [][]uint64{big[:maxAppendChunk], big[maxAppendChunk:]} {
			want = append(want, walTestFrame(chunk...)...)
		}
		for _, c := range commits {
			want = append(want, walTestFrame(c...)...)
		}
		for lo := 0; lo < len(huge); lo += maxAppendChunk {
			want = append(want, walTestFrame(huge[lo:min(lo+maxAppendChunk, len(huge))]...)...)
		}

		dir := t.TempDir()
		e := openT(t, dir, Options{NoCompactor: true})
		defer e.Close()
		if err := e.AppendBatch(big); err != nil {
			t.Fatal(err)
		}
		for _, c := range commits {
			if err := e.CommitBatch(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CommitBatch(huge); err != nil {
			t.Fatal(err)
		}
		checkLogBytes(t, filepath.Join(dir, walFileName(0)), want)
	})
	t.Run("string", func(t *testing.T) {
		keys := func(n int, tag string) []string {
			out := make([]string, n)
			for i := range out {
				// Lengths 0..199: one- and two-byte length varints.
				out[i] = (tag + fmt.Sprintf("%08x", i) + strings.Repeat("x", 200))[:i%200]
			}
			return out
		}
		// chunks splits keys into the longest runs whose encoded keys fit the
		// record's byte budget, at least one key each.
		chunks := func(keys []string) [][]string {
			var out [][]string
			for lo := 0; lo < len(keys); {
				hi, size := lo, 0
				for hi < len(keys) {
					sz := binenc.UvarintLen(uint64(len(keys[hi]))) + len(keys[hi])
					if hi > lo && size+sz > maxStringChunkBytes {
						break
					}
					size += sz
					hi++
				}
				out = append(out, keys[lo:hi])
				lo = hi
			}
			return out
		}
		big := keys(45000, "a")
		commits := [][]string{keys(3, "b"), keys(1, "c"), keys(700, "d")}
		huge := keys(90000, "e")
		if len(chunks(big)) != 2 || len(chunks(huge)) != 3 {
			t.Fatalf("setup: the Append spans %d records, the oversized Commit %d; want 2 and 3",
				len(chunks(big)), len(chunks(huge)))
		}

		var want []byte
		for _, chunk := range chunks(big) {
			want = append(want, walTestStringFrame(chunk...)...)
		}
		for _, c := range commits {
			want = append(want, walTestStringFrame(c...)...)
		}
		for _, chunk := range chunks(huge) {
			want = append(want, walTestStringFrame(chunk...)...)
		}

		dir := t.TempDir()
		e := openT(t, dir, Options{NoCompactor: true, StringKeys: true})
		defer e.Close()
		if err := e.AppendStringBatch(big); err != nil {
			t.Fatal(err)
		}
		for _, c := range commits {
			if err := e.CommitStringBatch(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CommitStringBatch(huge); err != nil {
			t.Fatal(err)
		}
		checkLogBytes(t, filepath.Join(dir, walStrFileName(0)), want)
	})
}

// checkLogBytes compares the log at path with want, byte for byte, and
// checks that whatever the file holds past it is the zeroed reserved tail.
func checkLogBytes(t *testing.T, path string, want []byte) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) < len(want) {
		t.Fatalf("log holds %d bytes, the reference %d", len(img), len(want))
	}
	if i := firstDiff(img[:len(want)], want); i >= 0 {
		t.Fatalf("log differs from the reference at byte %d of %d", i, len(want))
	}
	if tail := img[len(want):]; bytes.Count(tail, []byte{0}) != len(tail) {
		t.Fatalf("log holds non-zero bytes past the reference's %d", len(want))
	}
}

// firstDiff returns the first index where a and b (of equal length)
// differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
