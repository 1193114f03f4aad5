package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"slices"

	"learnedindex/internal/binenc"
	"learnedindex/internal/frame"
	"learnedindex/internal/vfs"
)

// Self-healing scrub. Every live segment is fully materialized in memory
// at open (keys, model), so the in-memory image is a verified
// good copy of the file for as long as the process lives. Scrub exploits
// that: it re-reads each segment file, re-verifies the magic and
// body checksum, and rewrites any file that has rotted underneath the
// process from the in-memory image — temp file, fsync, atomic rename over
// the corrupt original, directory fsync. The replace is atomic, so there
// is never an instant with no (or a half-written) file at the segment's
// path; a crash mid-heal leaves either the old corrupt file (quarantined
// at the next open) or the healed one.
//
// Scrub is the in-process half of the corruption story; open-time
// quarantine (loadSegments) is the other half, for rot that outlives the
// process. Scrub shrinks the window in which a crash would turn silent
// rot into data loss.

// verifySegmentImage checks a raw segment file image's magic and body
// checksum — the cheap integrity gate, no decode.
func verifySegmentImage(data []byte) error {
	if len(data) < len(segMagic)+4 {
		return fmt.Errorf("storage: segment file truncated to %d bytes: %w", len(data), binenc.ErrCorrupt)
	}
	if m := [8]byte(data[:8]); m != segMagic && m != segMagic2 {
		return fmt.Errorf("storage: bad segment magic: %w", binenc.ErrCorrupt)
	}
	body := data[len(segMagic) : len(data)-4]
	if frame.Checksum(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return fmt.Errorf("storage: segment checksum mismatch: %w", binenc.ErrCorrupt)
	}
	return nil
}

// encodeLiveSegment re-encodes a live segment's file image from its
// in-memory state, byte-identical to what this version writes: a file
// written while segments carried Bloom filters heals to that image, with an
// empty filter slot.
func encodeLiveSegment(s *segment) ([]byte, error) {
	if s.isString() {
		return encodeStringSegment(s.sindex)
	}
	return encodeSegment(s.keys, s.rmi)
}

// liveImageLen is len(encodeLiveSegment(s)), measured without encoding.
func liveImageLen(s *segment) (int, error) {
	rb, err := s.rmi.AppendBinary(nil)
	if err != nil {
		return 0, err
	}
	rest := blockLen(len(rb)) + len(emptySlot)
	if s.isString() {
		rest += blockLen(s.sindex.Dict().EncodedLen())
	}
	return imageLen(s.keys, rest), nil
}

// Scrub re-verifies every live segment file's checksum and rewrites any
// corrupt one from the in-memory image (the resident run has no file and
// is passed over: the WAL holds its keys). It returns how many segments were
// checked and healed; err reports the first heal that itself failed (the
// segment keeps serving from memory either way) or, on a filesystem that
// keeps nothing, the first file it could not read back (wrapping
// vfs.ErrDiscarded; such a segment is neither checked nor healed). Safe to
// call concurrently with everything.
func (e *Engine) Scrub() (checked, healed int, err error) {
	for _, s := range *e.segs.Load() {
		if s.resident() {
			continue
		}
		data, rerr := e.fs.ReadFile(s.path)
		if errors.Is(rerr, vfs.ErrDiscarded) {
			// The filesystem kept no file to verify or heal (vfs.Discard).
			if err == nil {
				err = fmt.Errorf("storage: scrub %s: %w", s.name(), rerr)
			}
			continue
		}
		verr := rerr
		if rerr == nil {
			verr = verifySegmentImage(data)
		}
		checked++
		if verr == nil {
			continue
		}
		// Heal under segMu: retirement (compaction swap) also holds it, so
		// the file cannot be deleted or zombied mid-rewrite. Skip segments
		// that left the live list while we were reading.
		e.segMu.Lock()
		if !slices.Contains(*e.segs.Load(), s) || s.zombie {
			e.segMu.Unlock()
			continue
		}
		herr := e.healLocked(s, verr)
		e.segMu.Unlock()
		if herr != nil {
			if err == nil {
				err = herr
			}
			continue
		}
		healed++
	}
	e.m.scrubPasses.Inc()
	return checked, healed, err
}

// healLocked rewrites one corrupt segment file from the in-memory image.
// Called with segMu held.
func (e *Engine) healLocked(s *segment, cause error) error {
	log.Printf("storage: scrub found %s corrupt (%v); rewriting from memory", s.path, cause)
	img, err := encodeLiveSegment(s)
	if err != nil {
		return err // in-memory state unencodable: should be impossible
	}
	if err := vfs.CommitFile(e.fs, s.path, img, e.countIOErr); err != nil {
		return err
	}
	e.m.scrubHeals.Inc()
	return nil
}
