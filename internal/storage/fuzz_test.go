package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"slices"
	"testing"

	"learnedindex/internal/binenc"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/scan"
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
	img, err := encodeSegment(keys, rmi)
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
	// A file written while segments carried Bloom filters (testdata/README.md):
	// the filter slot holds a whole filter, which the decoder skips.
	old, err := os.ReadFile("testdata/parent-u64/seg-0000000000000004-0000000000000004.seg")
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := decodeSegment(old); err != nil {
		f.Fatalf("a filter-carrying image does not decode: %v", err)
	}
	f.Add(old, uint16(11))

	f.Fuzz(func(t *testing.T, in []byte, seekSel uint16) {
		ks, r, err := decodeSegment(in) // must never panic
		if err != nil {
			return
		}
		// Accepted input: the decoded structures must serve without
		// panicking across the whole key range.
		if len(ks) == 0 || r == nil {
			t.Fatalf("nil-but-no-error decode")
		}
		for _, k := range []uint64{0, ks[0], ks[len(ks)-1], ks[len(ks)/2] + 1, ^uint64(0)} {
			_ = r.Lookup(k)
			_ = r.Contains(k)
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

// walTestFrame is one well-formed uint64 WAL frame, built by hand — from
// the format's description, not by the writer — so a seed can plant a record
// the writer never wrote and the compatibility test can hold the writer to
// the bytes it has always produced.
func walTestFrame(keys ...uint64) []byte {
	payload := binenc.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		payload = binenc.AppendUvarint(payload, k)
	}
	return walTestSeal(payload)
}

// replayWAL and replayWALStrings replay a log of either key mode.
func replayWAL(data []byte) ([]uint64, int64)        { return replayLog(data, &u64Ops) }
func replayWALStrings(data []byte) ([]string, int64) { return replayLog(data, &strOps) }

// walTestStringFrame is walTestFrame for a string-keyed log.
func walTestStringFrame(keys ...string) []byte {
	payload := binenc.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		payload = append(binenc.AppendUvarint(payload, uint64(len(k))), k...)
	}
	return walTestSeal(payload)
}

// crcTable is the formats' checksum, crc32c, spelled out here rather than
// taken from internal/frame, so hand-built frames and reference images check
// the writers instead of sharing their code.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func walTestSeal(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// nrec bits of FuzzWALReplay: how many small records the writer appends, and
// the two shapes a reserved log adds.
const (
	fuzzWALRecords  = 0x07 // record count
	fuzzWALZeroTail = 0x08 // keep the reserved, never-written rest of the file
	fuzzWALStraddle = 0x10 // one more record, long enough to cross walExtent
)

// FuzzWALReplay asserts the recovery properties on arbitrary log bytes:
// replay never panics, replay is idempotent after truncation (re-reading
// the truncated prefix reproduces exactly the same keys — the recovery
// path's fixed point), a valid committed prefix — everything up to the
// writer's logical size, whatever the file's length — is never lost nor
// reordered no matter what follows it ("recovery never invents keys" is the
// contrapositive: every replayed key came from a record whose frame fully
// checksummed), and an all-zero header ends the log: nothing behind the
// reserved zero tail of a log is ever replayed, not even a well-formed
// frame.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x00}, 32), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint8(3))
	f.Add([]byte{7, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2))
	f.Add([]byte{}, uint8(3|fuzzWALZeroTail))                                       // a zero tail
	f.Add(walTestFrame(41, 42), uint8(0|fuzzWALZeroTail))                           // an empty log, a frame behind its zero tail
	f.Add(walTestFrame(41, 42), uint8(2|fuzzWALZeroTail))                           // garbage after a zero tail
	f.Add(walTestFrame(41, 42), uint8(2|fuzzWALStraddle))                           // a frame across the extent boundary, then a good frame
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint8(1|fuzzWALStraddle|fuzzWALZeroTail)) // the same with the second extent's zero tail

	f.Fuzz(func(t *testing.T, tail []byte, nrec uint8) {
		// Build a known-good prefix via the real writer.
		w := newWALT(t, t.TempDir()+"/"+walFileName(0))
		var committed []uint64
		for i := 0; i < int(nrec&fuzzWALRecords); i++ {
			rec := []uint64{uint64(i) * 17, uint64(i)*17 + 1}
			if err := logRecord(w, &u64Ops, rec); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, rec...)
		}
		if nrec&fuzzWALStraddle != 0 {
			rec := make([]uint64, walExtent/9) // 9-byte varints, plus the records before it
			for i := range rec {
				rec[i] = 1<<63 - uint64(i)
			}
			if err := logRecord(w, &u64Ops, rec); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, rec...)
			if w.size <= walExtent || w.reserved != 2*walExtent {
				t.Fatalf("straddling record ended at %d with %d reserved", w.size, w.reserved)
			}
		}
		if err := w.sync(); err != nil {
			t.Fatal(err)
		}
		image, err := os.ReadFile(w.path)
		if err != nil {
			t.Fatal(err)
		}
		w.close()
		// Past the writer's logical size the file holds only the reservation:
		// zeros.
		if int64(len(image)) < w.size || len(bytes.TrimRight(image[w.size:], "\x00")) != 0 {
			t.Fatalf("log file of %d bytes is not %d written bytes and a zero tail", len(image), w.size)
		}
		image = image[:w.size]
		zeroTail := nrec&fuzzWALZeroTail != 0 && w.reserved-w.size >= walHeaderLen
		if zeroTail {
			image = append(image, make([]byte, w.reserved-w.size)...)
		}

		input := append(image, tail...)
		keys, good := replayWAL(input) // must never panic
		if good < w.size {
			t.Fatalf("replay truncated into the committed prefix: %d < %d", good, w.size)
		}
		if len(keys) < len(committed) {
			t.Fatalf("replay lost committed keys: %d < %d", len(keys), len(committed))
		}
		for i, k := range committed {
			if keys[i] != k {
				t.Fatalf("committed key %d replayed as %d", k, keys[i])
			}
		}
		if zeroTail && (good != w.size || len(keys) != len(committed)) {
			t.Fatalf("replay went past the zero tail: stopped at %d with %d keys, log ends at %d with %d",
				good, len(keys), w.size, len(committed))
		}
		// Idempotence: replaying the truncated image changes nothing.
		keys2, good2 := replayWAL(input[:good])
		if good2 != good || !slices.Equal(keys, keys2) {
			t.Fatalf("replay not idempotent: (%d,%d) vs (%d,%d)", good2, len(keys2), good, len(keys))
		}
		// A zero header where replay stopped hides whatever follows it.
		hidden := append(append(slices.Clone(input[:good]), make([]byte, walHeaderLen)...), walTestFrame(43)...)
		keys3, good3 := replayWAL(hidden)
		if good3 != good || !slices.Equal(keys, keys3) {
			t.Fatalf("replay read past a zero header: (%d,%d) vs (%d,%d)", good3, len(keys3), good, len(keys))
		}
	})
}
