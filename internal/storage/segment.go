package storage

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"learnedindex/internal/binenc"
	"learnedindex/internal/core"
	"learnedindex/internal/frame"
	"learnedindex/internal/keycodec"
	"learnedindex/internal/vfs"
)

// Segment files are the immutable sorted runs of the engine. Layout:
//
//	magic "LIXSEG01" (8 bytes)
//	body:
//	  uvarint keyCount (>= 1)
//	  uvarint firstKey, then keyCount-1 uvarint deltas (strictly positive)
//	  length-prefixed serialized core.RMI   (trained over the key block)
//	  length-prefixed filter slot (written empty; skipped unread)
//	crc32c(body) (4 bytes LE)
//
// Delta-varint coding exploits sortedness (a few bytes per key against the
// 8 of the decoded array); the trailing checksum makes any torn or
// bit-flipped file fail to open instead of serving wrong answers. A segment is written once —
// temp file, fsync, rename, directory fsync — and never modified;
// compaction writes a replacement and deletes the inputs.
//
// Filenames are seg-<seqLo>-<seqHi>.seg with 16-hex-digit sequence
// numbers. A flush produces seqLo == seqHi; compaction of a contiguous
// run produces the covering range. Recovery treats a file whose range is
// strictly contained in another's as an obsolete compaction input that
// survived a crash, and deletes it.
//
// Version 2 ("LIXSEG02") is the string-keyed segment of the key codec
// (internal/keycodec). Layout:
//
//	magic "LIXSEG02" (8 bytes)
//	body:
//	  uvarint prefixCount (>= 1)
//	  uvarint firstPrefix, then prefixCount-1 uvarint deltas (positive)
//	  length-prefixed serialized core.RMI (trained over the prefixes)
//	  length-prefixed filter slot         (written empty; skipped unread)
//	  length-prefixed keycodec.Dict       (suffixes + collision dir)
//	crc32c(body) (4 bytes LE)
//
// The prefix block reuses the uint64 delta-varint coding over the sorted
// *deduplicated* 8-byte prefixes; the dictionary reconstructs the exact
// keys from the prefixes plus per-key length+suffix, so long keys never
// store their first 8 bytes twice.
//
// The filter slot once held a Bloom filter over the segment's keys. The
// model answers existence exactly (fence, plan, one equality test), so a
// segment is written with an empty slot, and a decoder skips the slot
// without reading it: a file written while segments still carried filters
// opens, and its filter bytes never reach the heap. A binary that still
// reads filters decodes the empty slot as a corrupt filter and quarantines
// the file, so downgrading a directory is not supported.
//
// A resident key is stored once. The file image is dropped as soon as it is
// decoded (or written): a v1 segment is its decoded key array, which point
// reads search and scans iterate; a v2 segment is the prefix array plus the
// dictionary's key block (keycodec.Dict) — no string per key — and the
// strings a scan, a merge or a Keys reply needs are materialized for that
// call and let go. Version tags make the formats
// self-describing: a v1 file decodes under v1 rules forever, and an engine
// opened in the wrong mode rejects the directory instead of misreading it.
var (
	segMagic  = [8]byte{'L', 'I', 'X', 'S', 'E', 'G', '0', '1'}
	segMagic2 = [8]byte{'L', 'I', 'X', 'S', 'E', 'G', '0', '2'}
)

type segment struct {
	seqLo, seqHi uint64
	// path is the committed file, and diskBytes its size. Both are zero on
	// the resident run — the one segment, always last in the list, that a
	// drain built and no spill has written out yet: reads serve it like any
	// other, and its keys' durable home is the WAL (see Engine.Drain).
	path string
	// keys holds the sorted key block: the exact keys of a v1 segment, or
	// the sorted deduplicated prefixes of a v2 (string-keyed) segment.
	keys []uint64
	rmi  *core.RMI
	// plan is rmi's compiled read path, captured when the segment is
	// written or opened so cold-start reads execute the flat plan — the
	// multi-segment read pipeline is fence check → plan, pruning before any
	// model runs.
	plan      *core.Plan
	diskBytes int64

	// sindex is the codec read path of a string-keyed (v2) segment: the
	// prefix plan over keys plus the suffix dictionary that holds the exact
	// keys. Nil on a v1 segment.
	sindex *core.StringIndex

	// pins counts open scan snapshots holding this segment; zombie marks a
	// compacted-away segment whose file deletion is deferred until the last
	// pin releases. Both are guarded by the engine's segMu (pins is atomic
	// only so Stats-style readers could peek without the lock).
	pins   atomic.Int32
	zombie bool
}

// name is the segment's metric-label identity: its sequence range, the
// same pair the filename carries.
func (s *segment) name() string {
	return fmt.Sprintf("%04x-%04x", s.seqLo, s.seqHi)
}

func (s *segment) minKey() uint64 { return s.keys[0] }
func (s *segment) maxKey() uint64 { return s.keys[len(s.keys)-1] }

// isString reports the segment's format.
func (s *segment) isString() bool { return s.sindex != nil }

func (s *segment) minStr() string { return s.sindex.Dict().Min() }
func (s *segment) maxStr() string { return s.sindex.Dict().Max() }

// resident reports whether s is the resident run: served, not yet a file.
func (s *segment) resident() bool { return s.path == "" }

// numKeys returns the segment's exact key count in its native domain.
func (s *segment) numKeys() int {
	if s.isString() {
		return s.sindex.Len()
	}
	return len(s.keys)
}

func segmentFileName(seqLo, seqHi uint64) string {
	return fmt.Sprintf("seg-%016x-%016x.seg", seqLo, seqHi)
}

// parseSegmentFileName extracts the sequence range, rejecting anything
// that does not match the canonical name.
func parseSegmentFileName(name string) (seqLo, seqHi uint64, ok bool) {
	var lo, hi uint64
	n, err := fmt.Sscanf(name, "seg-%016x-%016x.seg", &lo, &hi)
	if err != nil || n != 2 || lo > hi || name != segmentFileName(lo, hi) {
		return 0, 0, false
	}
	return lo, hi, true
}

// newSegmentImage starts a file image: it sizes the whole image once —
// magic, the count-prefixed delta-varint block of keys (measured exactly),
// rest more body bytes, checksum — and encodes the key block in place. The
// caller appends exactly rest bytes of sections and seals the image.
func newSegmentImage(magic [8]byte, keys []uint64, rest int) []byte {
	img := make([]byte, 0, imageLen(keys, rest))
	img = append(img, magic[:]...)
	img = binenc.AppendUvarint(img, uint64(len(keys)))
	img = binenc.AppendUvarint(img, keys[0])
	for i := 1; i < len(keys); i++ {
		img = binenc.AppendUvarint(img, keys[i]-keys[i-1])
	}
	return img
}

// imageLen is the size of a file image over keys with rest more body
// bytes: magic, the count-prefixed delta-varint key block, the rest, the
// checksum.
func imageLen(keys []uint64, rest int) int {
	block := binenc.UvarintLen(keys[0])
	for i := 1; i < len(keys); i++ {
		block += binenc.UvarintLen(keys[i] - keys[i-1])
	}
	return len(segMagic) + binenc.UvarintLen(uint64(len(keys))) + block + rest + 4
}

// sealSegmentImage appends the checksum of the body (everything after the
// magic).
func sealSegmentImage(img []byte) []byte {
	return binary.LittleEndian.AppendUint32(img, frame.Checksum(img[len(segMagic):]))
}

// blockLen is the size of an n-byte length-prefixed block.
func blockLen(n int) int { return binenc.UvarintLen(uint64(n)) + n }

// emptySlot is the encoding of the empty filter slot: a zero length.
var emptySlot = binenc.AppendUvarint(nil, 0)

// encodeSegment builds the full file image (magic + body + checksum) for
// sorted unique non-empty keys with their trained index.
func encodeSegment(keys []uint64, rmi *core.RMI) ([]byte, error) {
	rb, err := rmi.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	img := newSegmentImage(segMagic, keys, blockLen(len(rb))+len(emptySlot))
	img = binenc.AppendBytes(img, rb)
	return sealSegmentImage(append(img, emptySlot...)), nil
}

// decodeKeyBlock opens a file image of the given version: magic, then the
// checksum of the body — so a torn or bit-flipped file fails before
// anything is decoded from it — then the count-prefixed delta-varint key
// block, every delta strictly positive and free of uint64 wrap. It returns
// the keys and the reader positioned at the sections that follow.
func decodeKeyBlock(data []byte, magic [8]byte) (*binenc.Reader, []uint64, error) {
	if len(data) < len(magic)+4 || [8]byte(data[:8]) != magic {
		return nil, nil, fmt.Errorf("storage: bad segment magic: %w", binenc.ErrCorrupt)
	}
	body := data[len(magic) : len(data)-4]
	if frame.Checksum(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, nil, fmt.Errorf("storage: segment checksum mismatch: %w", binenc.ErrCorrupt)
	}
	r := binenc.NewReader(body)
	n := r.Count(len(body), 1)
	if r.Err() != nil || n < 1 {
		return nil, nil, binenc.ErrCorrupt
	}
	keys := make([]uint64, n)
	keys[0] = r.Uvarint()
	for i := 1; i < n; i++ {
		d := r.Uvarint()
		k := keys[i-1] + d
		if d < 1 || k < keys[i-1] { // zero delta or uint64 wrap
			return nil, nil, binenc.ErrCorrupt
		}
		keys[i] = k
	}
	return r, keys, r.Err()
}

// endOfBody closes an exact decode, like WAL records: trailing bytes mean
// the file was written by something newer or buggier than this decoder —
// reject it at open rather than serving it partially.
func endOfBody(r *binenc.Reader) error {
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("storage: %d trailing bytes after segment body: %w", r.Remaining(), binenc.ErrCorrupt)
	}
	return nil
}

// decodeSegment parses a full v1 file image. All errors are reported, never
// panicked, including on adversarial input: checksum first, then strictly
// validated key deltas, then the model decoder (which binds the RMI to the
// decoded key block and cross-checks its key count). The filter slot is
// skipped unread.
func decodeSegment(data []byte) ([]uint64, *core.RMI, error) {
	r, keys, err := decodeKeyBlock(data, segMagic)
	if err != nil {
		return nil, nil, err
	}
	rmi, err := core.DecodeRMI(r.Bytes(), keys)
	if err != nil {
		return nil, nil, err
	}
	r.Bytes() // the filter slot
	if err := endOfBody(r); err != nil {
		return nil, nil, err
	}
	return keys, rmi, nil
}

// buildSegment trains an RMI over keys (sorted, unique, non-empty) and
// returns the segment that serves them: complete in memory, with no file
// yet (path == ""). commitSegment gives it one.
func buildSegment(seqLo, seqHi uint64, keys []uint64, cfg core.Config) *segment {
	rmi := core.New(keys, cfg)
	return &segment{
		seqLo: seqLo, seqHi: seqHi,
		keys: keys, rmi: rmi, plan: rmi.Plan(),
	}
}

// commitSegment encodes a built segment that no reader can reach yet and
// commits the image to dir crash-safely under the name of its sequence
// range (vfs.CommitFile; ignored errors go to ignored). Only then does the
// segment carry a path and a size on disk.
//
// On vfs.Discard, which keeps no byte of it, the image is measured instead
// of encoded: the encode is most of a bulk load there (an 8M-key segment's
// ~100 ms against its fit), and the size is what compaction tiers by.
func commitSegment(fs vfs.FS, ignored func(ctx string, err error), dir string, s *segment) error {
	final := filepath.Join(dir, segmentFileName(s.seqLo, s.seqHi))
	if fs == vfs.Discard {
		n, err := liveImageLen(s)
		if err != nil {
			return err
		}
		s.path, s.diskBytes = final, int64(n)
		return nil
	}
	img, err := encodeLiveSegment(s)
	if err != nil {
		return err
	}
	if err := vfs.CommitFile(fs, final, img, ignored); err != nil {
		return err
	}
	s.path, s.diskBytes = final, int64(len(img))
	return nil
}

// unpublished returns a fresh segment over s's immutable index, for the
// sequence range given: what a spill commits when the resident run it
// writes out is already built — s itself is in a published list, where its
// path must not change under a reader.
func (s *segment) unpublished(seqLo, seqHi uint64) *segment {
	return &segment{
		seqLo: seqLo, seqHi: seqHi,
		keys: s.keys, rmi: s.rmi, plan: s.plan, sindex: s.sindex,
	}
}

// openSegmentFile reads and decodes one committed segment, dispatching on
// the version magic: v1 files decode under the original uint64 rules
// unchanged, v2 files under the codec rules.
func openSegmentFile(fs vfs.FS, path string, seqLo, seqHi uint64) (*segment, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= len(segMagic2) && [8]byte(data[:8]) == segMagic2 {
		si, err := decodeStringSegment(data)
		if err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", filepath.Base(path), err)
		}
		return &segment{
			seqLo: seqLo, seqHi: seqHi, path: path,
			keys: si.Prefixes(), rmi: si.RMI(), plan: si.Plan(),
			sindex: si, diskBytes: int64(len(data)),
		}, nil
	}
	keys, rmi, err := decodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("storage: segment %s: %w", filepath.Base(path), err)
	}
	return &segment{
		seqLo: seqLo, seqHi: seqHi, path: path,
		keys: keys, rmi: rmi, plan: rmi.Plan(),
		diskBytes: int64(len(data)),
	}, nil
}

// encodeStringSegment builds the v2 file image for a codec index over
// sorted unique non-empty string keys, sized once and encoded in place like
// the v1 image.
func encodeStringSegment(si *core.StringIndex) ([]byte, error) {
	rb, err := si.RMI().AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	dict := si.Dict()
	dl := dict.EncodedLen()
	img := newSegmentImage(segMagic2, si.Prefixes(), blockLen(len(rb))+len(emptySlot)+blockLen(dl))
	img = binenc.AppendBytes(img, rb)
	img = append(img, emptySlot...)
	img = dict.AppendBinary(binenc.AppendUvarint(img, uint64(dl)))
	return sealSegmentImage(img), nil
}

// decodeStringSegment parses a v2 file image with decodeSegment's
// guarantees; the dictionary decoder cross-checks every key's prefix and
// ordering against the decoded prefix block.
func decodeStringSegment(data []byte) (*core.StringIndex, error) {
	r, prefixes, err := decodeKeyBlock(data, segMagic2)
	if err != nil {
		return nil, err
	}
	rmi, err := core.DecodeRMI(r.Bytes(), prefixes)
	if err != nil {
		return nil, err
	}
	r.Bytes() // the filter slot
	dict, err := keycodec.DecodeDict(binenc.NewReader(r.Bytes()), prefixes)
	if err != nil {
		return nil, err
	}
	if err := endOfBody(r); err != nil {
		return nil, err
	}
	return core.AssembleStringIndex(rmi, dict), nil
}

// buildStringSegment is buildSegment for string keys (sorted, unique,
// non-empty): derive the codec pair and train the prefix RMI. The key bytes
// are copied into the dictionary's arena; keys is not retained, and the
// segment is the same structure a reopen decodes from the file
// commitSegment writes.
func buildStringSegment(seqLo, seqHi uint64, keys []string, cfg core.Config) (*segment, error) {
	prefixes, dict, err := keycodec.BuildDict(keys)
	if err != nil {
		return nil, err
	}
	si := core.AssembleStringIndex(core.New(prefixes, cfg), dict)
	return &segment{
		seqLo: seqLo, seqHi: seqHi,
		keys: prefixes, rmi: si.RMI(), plan: si.Plan(),
		sindex: si,
	}, nil
}
