package storage

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"learnedindex/internal/binenc"
	"learnedindex/internal/frame"
	"learnedindex/internal/slicepool"
	"learnedindex/internal/vfs"
)

// Write-ahead log. Every Append is one framed record:
//
//	[payloadLen uint32 LE][crc32c(payload) uint32 LE][payload]
//	payload = uvarint keyCount, then keyCount uvarint keys
//	        | uvarint keyCount, then keyCount × (uvarint len, len bytes)
//
// The header is a wire message's (internal/frame) without the kind byte —
// same checksum, same payload bound — and the payload is binenc's key
// payload: AppendUvarints, or AppendStrings in a string-keyed log, whose
// records live only in wals-*.log files (see walStrFileName), so the two
// grammars never meet the wrong decoder.
//
// Durability contract: Append is buffered; only Sync makes previously
// appended records crash-safe (flush + fsync). Concurrent committers are
// group-committed: a whole cohort's keys are encoded as one frame and
// covered by one fsync (see the Engine's commit plane). Recovery scans records
// front to back, stops at the first frame whose length, checksum, or
// payload fails validation, and truncates everything after it — a torn
// tail (the bytes past the last fsync that partially reached disk) is cut
// off without surfacing any invented key, while every record fully on
// disk is replayed.
//
// The file is reserved ahead of the writes, one walExtent at a time
// (vfs.File.Allocate): zeros are written past the end of the file, without
// a sync of their own, and the next commit's fsync makes them durable once
// per extent. From then on the fsync of a record inside the reserved range
// is a data write plus a device flush: it overwrites allocated, written
// blocks, so no block allocation, size change or extent conversion rides
// along in the filesystem's journal. A reservation by fallocate(2) would
// not be enough: its blocks are unwritten extents, and ext4 journals the
// conversion of each one on its first write, so every commit's fsync would
// still wait on a journal commit. Records are still written sequentially
// from offset 0, so a log may end in reserved bytes that were never
// written. They read as zero, and an all-zero header is the clean end of
// the log. Reserving is an optimisation only: a log whose reservation
// failed, or one written before logs were reserved, is appended to and
// replays exactly as before.
//
// Logs rotate rather than truncate: files are named wal-<seq>.log, and a
// flush freezes the active log (fsync), starts a fresh one, and deletes
// the frozen file only after its contents are committed to a segment file
// (a drain serves keys from memory and leaves the log alone).
// Keys therefore always live in at least one durable place, and the
// engine's write mutex is never held across segment training. Recovery
// replays every wal-*.log in sequence order.
const (
	walHeaderLen = 8
	// walExtent is how far ahead of the writes a log is reserved: several
	// times what the serving layer's default drain cycle adds to a log
	// (4096 keys, ~30 KiB of frames), so a commit rarely crosses it — a log
	// lives until the resident run spills (spillKeys keys, a few extents) —
	// and small enough that reserving it for every rotated log costs little.
	walExtent = 256 << 10
)

func walFileName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// walStrFileName names a string-keyed engine's logs. The distinct prefix is
// the mode tag: records of the two key kinds are not self-describing, so
// the filename keeps a uint64-mode Open from ever replaying string frames
// (and vice versa) — a mode mismatch is an error at Open, not a
// misdecoded key.
func walStrFileName(seq uint64) string { return fmt.Sprintf("wals-%016x.log", seq) }

// parseWALFileName extracts the sequence number, rejecting anything that
// does not match the canonical name.
func parseWALFileName(name string) (seq uint64, ok bool) {
	n, err := fmt.Sscanf(name, "wal-%016x.log", &seq)
	if err != nil || n != 1 || name != walFileName(seq) {
		return 0, false
	}
	return seq, true
}

// parseWALStrFileName is parseWALFileName for string-keyed logs.
func parseWALStrFileName(name string) (seq uint64, ok bool) {
	n, err := fmt.Sscanf(name, "wals-%016x.log", &seq)
	if err != nil || n != 1 || name != walStrFileName(seq) {
		return 0, false
	}
	return seq, true
}

// wal is one open log file. Appends and buffer flushes are serialized by
// the Engine's write mutex; fsync and close additionally coordinate
// through fsyncMu so a group-commit leader's fsync — which runs *off* the
// engine mutex — can never race the file's close. A sync on a closed wal
// is a no-op by design: the only closers are a flush (which fsyncs the
// frozen log before rotating past it) and Engine.Close, so a closed wal's
// bytes are already durable or the engine has latched an error.
type wal struct {
	f    vfs.File
	w    *bufio.Writer
	path string
	size int64 // logical end of the last appended record (incl. buffered)
	// reserved is how many bytes of the file Allocate has reserved; zero
	// once a reservation failed, after which the log is plainly appended to.
	reserved int64
	// ioErr receives a failed reservation: counted, never fatal.
	ioErr func(ctx string, err error)

	fsyncMu sync.Mutex
	closed  bool
}

// newWAL creates a fresh, empty log at path on the given filesystem and
// reserves its first extent. A failed reservation goes to ioErr and the log
// is returned all the same.
func newWAL(fs vfs.FS, path string, ioErr func(ctx string, err error)) (*wal, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, w: bufio.NewWriter(f), path: path, ioErr: ioErr}
	w.reserve(walExtent)
	return w, nil
}

// reserve extends the reservation to size bytes.
func (w *wal) reserve(size int64) {
	if err := w.f.Allocate(size); err != nil {
		w.reserved = 0
		w.ioErr("reserve WAL extent", err)
		return
	}
	w.reserved = size
}

// walFrameAt returns the payload of the frame whose header starts at
// data[off:], or false where the log ends: fewer bytes than a header, an
// all-zero header (the never-written rest of a reserved extent — no record
// has an empty payload, every payload starts with its key count), a length
// beyond frame.MaxPayload or the data, or a checksum mismatch.
func walFrameAt(data []byte, off int) (payload []byte, ok bool) {
	if len(data)-off < walHeaderLen {
		return nil, false
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if plen == 0 && sum == 0 {
		return nil, false
	}
	if plen > frame.MaxPayload || len(data)-off-walHeaderLen < plen {
		return nil, false
	}
	payload = data[off+walHeaderLen : off+walHeaderLen+plen]
	if frame.Checksum(payload) != sum {
		return nil, false
	}
	return payload, true
}

// replayLog scans data for intact records and returns the keys they hold,
// decoded by the grammar of ops, plus the byte offset of the end of the
// last intact record — the truncation point for everything after it. It
// never panics on arbitrary input and never returns a key from a frame
// that fails validation.
func replayLog[K cmp.Ordered](data []byte, ops *keyOps[K]) (keys []K, good int64) {
	off := 0
	for {
		payload, ok := walFrameAt(data, off)
		if !ok {
			return keys, int64(off)
		}
		r := binenc.NewReader(payload)
		n := len(keys)
		keys = ops.decode(r, keys, len(payload))
		// A checksummed record must decode exactly; leftovers or a decode
		// error mean the frame was written by something else — stop here.
		if r.Err() != nil || r.Remaining() != 0 {
			return keys[:n], int64(off)
		}
		off += walHeaderLen + len(payload)
	}
}

// walBufPool recycles record encode buffers: a whole framed record is
// built in a pooled scratch and memcpy'd into the write buffer.
var walBufPool slicepool.Pool[byte]

// logRecord frames batches as ONE record into w's write buffer — for a
// commit cohort, the group-commit frame: a whole cohort of committers
// shares a single header, checksum, and (later) fsync. The caller keeps
// batches non-empty and within the record bound of ops (keyOps.limit). The
// record is encoded, header space first, into a pooled scratch buffer, so
// the append hot path reuses its encode memory under sustained ingest.
func logRecord[K cmp.Ordered](w *wal, ops *keyOps[K], batches ...[]K) error {
	buf := ops.record(append(walBufPool.Get(), make([]byte, walHeaderLen)...), batches...)
	defer walBufPool.Put(buf)
	payload := buf[walHeaderLen:]
	if len(payload) > frame.MaxPayload {
		return fmt.Errorf("storage: WAL record of %d bytes exceeds limit", len(payload))
	}
	if end := w.size + int64(len(buf)); w.reserved > 0 && end > w.reserved {
		w.reserve((end + walExtent - 1) / walExtent * walExtent)
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], frame.Checksum(payload))
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.size += int64(len(buf))
	return nil
}

// sync makes every appended record durable: buffer flush plus fsync. The
// caller must hold the engine write mutex (the buffer is not
// goroutine-safe); the fsync itself goes through the close guard.
func (w *wal) sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.fsync()
}

// fsync flushes OS-buffered bytes to stable storage. Safe to call off the
// engine mutex (group-commit leaders do); on an already-closed wal it is
// a no-op — see the struct comment for why that is sound.
func (w *wal) fsync() error {
	w.fsyncMu.Lock()
	defer w.fsyncMu.Unlock()
	if w.closed {
		return nil
	}
	return w.f.Sync()
}

// close flushes and closes the file without fsync (callers sync first
// when they need durability). The close guard waits out any in-flight
// leader fsync so the descriptor is never pulled from under one.
func (w *wal) close() error {
	ferr := w.w.Flush()
	w.fsyncMu.Lock()
	w.closed = true
	cerr := w.f.Close()
	w.fsyncMu.Unlock()
	if ferr != nil {
		return ferr
	}
	return cerr
}
