package storage

import (
	"bytes"
	"os"
	"testing"

	"learnedindex/internal/bloom"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/scan"
	"learnedindex/internal/vfs"
)

// FuzzSegmentDecode asserts the segment decoder never panics on arbitrary
// bytes, and that anything it does accept is internally coherent enough to
// serve without panicking either: lookups across the whole key range, and
// a scan — the cursor the serving layer puts over the decoded key array,
// entered through the decoded plan — that reproduces exactly the decoded
// keys, strictly increasing, from Seek(0) and from any key.
func FuzzSegmentDecode(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(segMagic[:], uint16(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(2))
	// A valid segment as seed so mutation explores the deep decode paths.
	keys := data.Uniform(2_000, 1_000_000, 1)
	rmi := core.New(keys, core.DefaultConfig(32))
	filter := bloom.New(len(keys), 0.01)
	for _, k := range keys {
		filter.AddUint64(k)
	}
	img, err := encodeSegment(keys, rmi, filter)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img, uint16(7))
	f.Add(img[:len(img)-5], uint16(9))
	// Malformed key blocks behind a good checksum, so the decode reaches
	// them: unterminated varints, a zero delta, a delta that wraps uint64.
	for _, block := range [][]byte{
		append([]byte{40}, bytes.Repeat([]byte{0x80}, 40)...),
		{3, 5, 0, 1},
		{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1},
	} {
		f.Add(sealSegmentImage(append(segMagic[:len(segMagic):len(segMagic)], block...)), uint16(0))
	}

	f.Fuzz(func(t *testing.T, in []byte, seekSel uint16) {
		ks, r, bf, err := decodeSegment(in) // must never panic
		if err != nil {
			return
		}
		// Accepted input: the decoded structures must serve without
		// panicking across the whole key range.
		if len(ks) == 0 || r == nil || bf == nil {
			t.Fatalf("nil-but-no-error decode")
		}
		for _, k := range []uint64{0, ks[0], ks[len(ks)-1], ks[len(ks)/2] + 1, ^uint64(0)} {
			_ = r.Lookup(k)
			_ = r.Contains(k)
			_ = bf.MayContainUint64(k)
		}
		var c scan.KeysCursor[uint64]
		c.Reset(ks, r.Plan())
		if !c.Seek(0) {
			t.Fatalf("Seek(0) exhausted on a %d-key segment", len(ks))
		}
		for i, want := range ks {
			if i > 0 && ks[i-1] >= want {
				t.Fatalf("accepted key block not strictly increasing at %d", i)
			}
			if got := c.Key(); got != want {
				t.Fatalf("scan[%d] = %d, decoded %d", i, got, want)
			}
			if adv := c.Next(); adv != (i+1 < len(ks)) {
				t.Fatalf("Next at %d = %v", i, adv)
			}
		}
		// Model-biased entry at an arbitrary position lands exactly.
		pos := int(seekSel) % len(ks)
		if !c.Seek(ks[pos]) || c.Key() != ks[pos] {
			t.Fatalf("Seek(%d) landed wrong", ks[pos])
		}
	})
}

// FuzzWALReplay asserts three recovery properties on arbitrary log bytes:
// replay never panics, replay is idempotent after truncation (re-reading
// the truncated prefix reproduces exactly the same keys — the recovery
// path's fixed point), and a valid committed prefix is never lost nor
// reordered no matter what corruption follows it ("recovery never invents
// keys" is the contrapositive: every replayed key came from a record whose
// frame fully checksummed).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x00}, 32), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint8(3))
	f.Add([]byte{7, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2))

	f.Fuzz(func(t *testing.T, tail []byte, nrec uint8) {
		// Build a known-good prefix of nrec records via the real writer.
		dir := t.TempDir()
		w, err := newWAL(vfs.OS, dir+"/"+walFileName(0))
		if err != nil {
			t.Fatal(err)
		}
		var committed []uint64
		for i := 0; i < int(nrec%8); i++ {
			rec := []uint64{uint64(i) * 17, uint64(i)*17 + 1}
			if err := w.append(rec); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, rec...)
		}
		if err := w.sync(); err != nil {
			t.Fatal(err)
		}
		prefix, err := os.ReadFile(w.path)
		if err != nil {
			t.Fatal(err)
		}
		w.close()

		input := append(append([]byte{}, prefix...), tail...)
		keys, good := replayWAL(input) // must never panic
		if good < int64(len(prefix)) {
			t.Fatalf("replay truncated into the committed prefix: %d < %d", good, len(prefix))
		}
		if len(keys) < len(committed) {
			t.Fatalf("replay lost committed keys: %d < %d", len(keys), len(committed))
		}
		for i, k := range committed {
			if keys[i] != k {
				t.Fatalf("committed key %d replayed as %d", k, keys[i])
			}
		}
		// Idempotence: replaying the truncated image changes nothing.
		keys2, good2 := replayWAL(input[:good])
		if good2 != good || len(keys2) != len(keys) {
			t.Fatalf("replay not idempotent: (%d,%d) vs (%d,%d)", good2, len(keys2), good, len(keys))
		}
		for i := range keys {
			if keys[i] != keys2[i] {
				t.Fatalf("key %d diverged across re-replay", i)
			}
		}
	})
}
