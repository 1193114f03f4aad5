// Package frame is the one message framing of every record stream in the
// repo: the replication and serving wires send messages as
//
//	kind u8 | payload len u32 LE | crc32c(payload) u32 LE | payload
//
// and the WAL frames its records with the same length, checksum and bound
// minus the kind byte (storage/wal.go). The package owns the checksum, the
// payload bound, the header encoder, the writer that puts each message on a
// connection in one Write, and the buffered reader. What a payload means is
// each wire's own message catalog; key payloads inside them use binenc's key
// grammar (AppendUvarints, AppendStrings).
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

const (
	// HeaderLen is a wire message's header: kind, payload length, checksum.
	HeaderLen = 9
	// MaxPayload bounds one payload on the wire and one WAL record: any
	// length beyond it is corruption (or hostility), never an allocation.
	MaxPayload = 1 << 26
	// bufLen is the initial size of a Reader's and a Writer's buffer; both
	// grow to the largest message seen.
	bufLen = 4096
	// maxReuse caps the buffer a Reader keeps between messages: one huge
	// message must not pin its memory for the connection's lifetime.
	maxReuse = 1 << 20
)

// ErrCorrupt is a message whose length exceeds MaxPayload or whose payload
// fails its checksum. Receivers treat it as a broken connection, never as
// data.
var ErrCorrupt = errors.New("frame: corrupt message frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the crc32c (Castagnoli) of b: the checksum of every wire
// message and WAL record, and the trailing checksum of segment files and of
// a follower's replication state.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// AppendHeader appends the header of a message of kind to dst. Append the
// payload after it, then Seal the message.
func AppendHeader(dst []byte, kind byte) []byte {
	return append(dst, kind, 0, 0, 0, 0, 0, 0, 0, 0)
}

// Seal writes the payload length and checksum into the header of msg, one
// message begun by AppendHeader with its whole payload appended.
func Seal(msg []byte) {
	payload := msg[HeaderLen:]
	binary.LittleEndian.PutUint32(msg[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(msg[5:], Checksum(payload))
}

// Writer is the sending side of one connection. Messages are encoded into a
// buffer the Writer keeps and handed to the connection in ONE Write call, so
// a transport fault (torn write, reorder) operates on whole messages the way
// FaultFS torn writes operate on whole WAL records. Not safe for concurrent
// use.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, buf: make([]byte, 0, bufLen)} }

// Buf returns the writer's buffer, emptied, to append the next message to.
func (w *Writer) Buf() []byte { return w.buf[:0] }

// Send writes msg, the messages appended to Buf, in one Write call and
// keeps msg's array for the next message.
func (w *Writer) Send(msg []byte) error {
	w.buf = msg
	_, err := w.w.Write(msg)
	return err
}

// Reader is the receiving side of one connection: it reads whole messages
// through one buffer it owns. Each fill is a single Read of whatever the
// transport has, a message is checked in place, and bytes past it stay
// buffered for the next call — one read syscall per message where a
// header-then-payload reader pays two. Because it reads ahead, a connection
// is read through one Reader for its whole life, handshake included.
type Reader struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] is received and not yet returned
}

// NewReader returns a Reader on src.
func NewReader(src io.Reader) *Reader { return &Reader{src: src, buf: make([]byte, bufLen)} }

// Next returns the next message's kind and payload; the payload views the
// reader's buffer until the next call. A length beyond MaxPayload or a
// checksum mismatch is ErrCorrupt; a clean end of stream on a message
// boundary is io.EOF, inside a message io.ErrUnexpectedEOF; any other error
// is the transport's. Never a panic.
func (f *Reader) Next() (kind byte, payload []byte, err error) {
	need := HeaderLen
	for {
		if f.w-f.r >= HeaderLen {
			plen := binary.LittleEndian.Uint32(f.buf[f.r+1:])
			if plen > MaxPayload {
				return 0, nil, ErrCorrupt
			}
			need = HeaderLen + int(plen)
		}
		if f.w-f.r >= need {
			break
		}
		f.reserve(need)
		n, err := f.src.Read(f.buf[f.w:])
		f.w += n
		if n == 0 && err != nil { // an error delivered with data resurfaces on the next Read
			if err == io.EOF && f.w > f.r {
				return 0, nil, io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	msg := f.buf[f.r : f.r+need]
	if f.r += need; f.r == f.w {
		f.r, f.w = 0, 0
	}
	if Checksum(msg[HeaderLen:]) != binary.LittleEndian.Uint32(msg[5:]) {
		return 0, nil, ErrCorrupt
	}
	return msg[0], msg[HeaderLen:], nil
}

// reserve makes room for a message of need bytes starting at f.r. The
// buffer grows only when the message cannot fit and drops back to bufLen
// once an outsized message has been consumed; otherwise the unread tail
// moves to the front.
func (f *Reader) reserve(need int) {
	switch {
	case need > len(f.buf), f.r == f.w && len(f.buf) > maxReuse:
		buf := make([]byte, max(need, bufLen))
		f.w = copy(buf, f.buf[f.r:f.w])
		f.r, f.buf = 0, buf
	case len(f.buf)-f.r < need:
		f.w = copy(f.buf, f.buf[f.r:f.w])
		f.r = 0
	}
}
