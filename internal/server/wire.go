// Package server is the network serving plane: a binary wire protocol that
// fronts a serve.Store with the batch RPCs the in-process API already
// amortizes — LookupBatch, ContainsBatch, paged Scan, CountRange, and
// group-commit durable inserts. The wire reuses the replication plane's
// defensive posture verbatim: kind + length + crc32c framing, panic-free
// bounded decoding through binenc, and exactly one Write call per message
// so transport faults (torn writes, reorders) operate on whole messages.
//
// The protocol is split-phase with one request in flight per connection:
// the client starts a request (one Write) and finishes it later (reads the
// one response), so a caller holding several connections puts every request
// on the wire before it waits for the first answer. There are no request
// ids: a connection never carries a second request before the first is
// answered, which keeps the wire grammar trivial to reason about under
// fault injection (a reordered message can stall a connection, never
// mis-pair an answer). Concurrency comes from multiple connections (the
// router keeps a per-node pool).
package server

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"learnedindex/internal/binenc"
)

// wireVersion is bumped on any incompatible message-grammar change; the
// handshake rejects mismatches outright rather than guessing.
const wireVersion = 1

// Message kinds. The handshake is hello/serverHello; after it every request
// kind has exactly one response kind (or respErr).
const (
	msgHello         = byte(1)  // client→server: version, key mode
	msgServerHello   = byte(2)  // server→client: version, key mode, follower flag
	msgLookupBatch   = byte(3)  // client→server: key payload
	msgPositions     = byte(4)  // server→client: store len, positions (uvarints)
	msgContainsBatch = byte(5)  // client→server: key payload
	msgBools         = byte(6)  // server→client: count + packed bitset
	msgScan          = byte(7)  // client→server: range + page limit
	msgKeys          = byte(8)  // server→client: more flag + key payload
	msgCountRange    = byte(9)  // client→server: range
	msgCount         = byte(10) // server→client: count
	msgInsert        = byte(11) // client→server: key payload (durable group commit)
	msgOK            = byte(12) // server→client: insert acknowledged durable
	msgErr           = byte(13) // server→client: store-level failure, conn stays up
	msgStatus        = byte(14) // client→server: empty
	msgStatusInfo    = byte(15) // server→client: follower/replication status + len
)

const (
	// wireHeaderLen frames every message: kind u8, payload length u32 LE,
	// crc32c(payload) u32 LE — identical to the repl plane's framing.
	wireHeaderLen = 9
	// maxWirePayload mirrors the WAL's record bound: any length beyond it
	// is corruption (or hostility), not data.
	maxWirePayload = 1 << 26
	// maxWireKeys bounds a single message's key count so a hostile count
	// can never size an allocation.
	maxWireKeys = 1 << 21
	// wireBufLen is the initial size of a connection's frame and encode
	// buffers; both grow to the largest message seen.
	wireBufLen = 4096
	// maxReuseKeys and maxReuseFrame cap what a connection keeps between
	// messages: one huge batch must not pin its memory for the
	// connection's lifetime.
	maxReuseKeys  = 1 << 16
	maxReuseFrame = 1 << 20
)

// errWire covers every malformed-input path in the decoder: truncated
// headers, oversized lengths, checksum mismatches, grammar violations.
// Receivers treat it as a broken connection, never as data.
var errWire = errors.New("server: corrupt wire frame")

var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// wmsg is the decoded form of every wire message; kind selects which fields
// are meaningful. One struct (rather than one type per kind) lets a
// connection decode every message into the same slices (see reset).
// strMode is the session key mode (fixed by the handshake) and selects the
// key and bound grammar.
type wmsg struct {
	kind      byte
	strMode   bool
	follower  bool     // serverHello, statusInfo
	connected bool     // statusInfo: follower link up
	bounded   bool     // scan/countRange: hi present (string mode can be open-ended)
	more      bool     // keys: another page exists past the last key
	lo, hi    uint64   // scan/countRange bounds, uint64 mode
	loS, hiS  string   // scan/countRange bounds, string mode
	limit     uint64   // scan: max keys per page
	count     uint64   // count response
	applied   uint64   // statusInfo: follower applied frame seq
	durable   uint64   // statusInfo: primary durable seq as seen by follower
	lag       uint64   // statusInfo: frames behind primary
	epoch     uint64   // statusInfo: max replication epoch seen
	storeLen  uint64   // positions/statusInfo: visible key count
	keys      []uint64 // key payloads, uint64 mode
	strs      []string // key payloads, string mode
	pos       []int    // positions response (both modes)
	bools     []bool   // bools response
	errMsg    string   // err response
}

// reset clears m for reuse as a message of the given kind, keeping the
// backing arrays of its slices so steady-state decoding and answering
// allocate nothing per message. Whatever m's slices held is overwritten by
// the next message: callers copy out anything they keep.
func (m *wmsg) reset(kind byte, strMode bool) {
	clear(m.strs) // a reused array must not pin the previous message's key bytes
	*m = wmsg{
		kind: kind, strMode: strMode,
		keys: reuse(m.keys), strs: reuse(m.strs), pos: reuse(m.pos), bools: reuse(m.bools),
	}
}

func reuse[T any](s []T) []T {
	if cap(s) > maxReuseKeys {
		return nil
	}
	return s[:0]
}

// appendWmsg encodes m as one wire message appended to dst.
func appendWmsg(dst []byte, m *wmsg) []byte {
	base := len(dst)
	dst = append(dst, m.kind, 0, 0, 0, 0, 0, 0, 0, 0)
	switch m.kind {
	case msgHello:
		dst = binenc.AppendUvarint(dst, wireVersion)
		dst = appendBool(dst, m.strMode)
	case msgServerHello:
		dst = binenc.AppendUvarint(dst, wireVersion)
		dst = appendBool(dst, m.strMode)
		dst = appendBool(dst, m.follower)
	case msgLookupBatch, msgContainsBatch, msgInsert:
		dst = appendKeyPayload(dst, m)
	case msgPositions:
		dst = binenc.AppendUvarint(dst, m.storeLen)
		dst = binenc.AppendUvarint(dst, uint64(len(m.pos)))
		for _, p := range m.pos {
			dst = binenc.AppendUvarint(dst, uint64(p))
		}
	case msgBools:
		dst = binenc.AppendUvarint(dst, uint64(len(m.bools)))
		var b byte
		for i, v := range m.bools {
			if v {
				b |= 1 << (i & 7)
			}
			if i&7 == 7 {
				dst = append(dst, b)
				b = 0
			}
		}
		if len(m.bools)&7 != 0 {
			dst = append(dst, b)
		}
	case msgScan:
		dst = appendRange(dst, m)
		dst = binenc.AppendUvarint(dst, m.limit)
	case msgKeys:
		dst = appendBool(dst, m.more)
		dst = appendKeyPayload(dst, m)
	case msgCountRange:
		dst = appendRange(dst, m)
	case msgCount:
		dst = binenc.AppendUvarint(dst, m.count)
	case msgOK, msgStatus:
		// empty payload
	case msgErr:
		dst = binenc.AppendBytes(dst, []byte(m.errMsg))
	case msgStatusInfo:
		dst = appendBool(dst, m.follower)
		dst = appendBool(dst, m.connected)
		dst = binenc.AppendUvarint(dst, m.applied)
		dst = binenc.AppendUvarint(dst, m.durable)
		dst = binenc.AppendUvarint(dst, m.lag)
		dst = binenc.AppendUvarint(dst, m.epoch)
		dst = binenc.AppendUvarint(dst, m.storeLen)
	default:
		panic(fmt.Sprintf("server: encode of unknown message kind %d", m.kind))
	}
	payload := dst[base+wireHeaderLen:]
	putU32 := func(off int, v uint32) {
		dst[off] = byte(v)
		dst[off+1] = byte(v >> 8)
		dst[off+2] = byte(v >> 16)
		dst[off+3] = byte(v >> 24)
	}
	putU32(base+1, uint32(len(payload)))
	putU32(base+5, crc32.Checksum(payload, wireCRC))
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	b := byte(0)
	if v {
		b = 1
	}
	return append(dst, b)
}

// appendRange encodes a scan/count range: a bounded flag, the low bound,
// and — only when bounded — the high bound. The open-ended form exists for
// string mode, where there is no cheap "past every key" sentinel.
func appendRange(dst []byte, m *wmsg) []byte {
	dst = appendBool(dst, m.bounded)
	if m.strMode {
		dst = binenc.AppendBytes(dst, []byte(m.loS))
		if m.bounded {
			dst = binenc.AppendBytes(dst, []byte(m.hiS))
		}
		return dst
	}
	dst = binenc.AppendUvarint(dst, m.lo)
	if m.bounded {
		dst = binenc.AppendUvarint(dst, m.hi)
	}
	return dst
}

// appendKeyPayload encodes the message's key set in the WAL payload
// grammar: uvarint count, then per key either a uvarint (uint64 mode) or a
// length-prefixed byte block (string mode).
func appendKeyPayload(dst []byte, m *wmsg) []byte {
	if m.strMode {
		dst = binenc.AppendUvarint(dst, uint64(len(m.strs)))
		for _, s := range m.strs {
			dst = binenc.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
		return dst
	}
	dst = binenc.AppendUvarint(dst, uint64(len(m.keys)))
	for _, k := range m.keys {
		dst = binenc.AppendUvarint(dst, k)
	}
	return dst
}

// decodePayload decodes one message payload into m (kind comes from the
// wire header, strMode from the handshake), reusing m's slices. Panic-free
// by construction: every read goes through the latching binenc.Reader,
// counts are bounded before any allocation, and trailing garbage is an
// error. Nothing in m aliases payload afterwards.
func decodePayload(kind byte, strMode bool, payload []byte, m *wmsg) error {
	m.reset(kind, strMode)
	r := binenc.NewReader(payload)
	switch kind {
	case msgHello, msgServerHello:
		if v := r.Uvarint(); r.Err() == nil && v != wireVersion {
			return fmt.Errorf("server: wire version %d, want %d", v, wireVersion)
		}
		var ok bool
		if m.strMode, ok = decodeBool(r); !ok {
			return errWire
		}
		if kind == msgServerHello {
			if m.follower, ok = decodeBool(r); !ok {
				return errWire
			}
		}
	case msgLookupBatch, msgContainsBatch:
		decodeKeyPayload(r, strMode, true, m)
	case msgInsert:
		decodeKeyPayload(r, strMode, false, m)
	case msgPositions:
		m.storeLen = r.Uvarint()
		n := r.Count(maxWireKeys, 1)
		for i := 0; i < n; i++ {
			m.pos = append(m.pos, int(r.Uvarint()))
		}
	case msgBools:
		n := r.Uvarint()
		if r.Err() == nil && n > maxWireKeys {
			return errWire
		}
		raw := r.Take(int(n+7) / 8)
		if r.Err() == nil {
			for i := 0; i < int(n); i++ {
				m.bools = append(m.bools, raw[i>>3]&(1<<(i&7)) != 0)
			}
		}
	case msgScan:
		if !decodeRange(r, strMode, m) {
			return errWire
		}
		m.limit = r.Uvarint()
	case msgKeys:
		var ok bool
		if m.more, ok = decodeBool(r); !ok {
			return errWire
		}
		decodeKeyPayload(r, strMode, false, m)
	case msgCountRange:
		if !decodeRange(r, strMode, m) {
			return errWire
		}
	case msgCount:
		m.count = r.Uvarint()
	case msgOK, msgStatus:
		// empty payload
	case msgErr:
		m.errMsg = string(r.Bytes())
	case msgStatusInfo:
		var ok bool
		if m.follower, ok = decodeBool(r); !ok {
			return errWire
		}
		if m.connected, ok = decodeBool(r); !ok {
			return errWire
		}
		m.applied = r.Uvarint()
		m.durable = r.Uvarint()
		m.lag = r.Uvarint()
		m.epoch = r.Uvarint()
		m.storeLen = r.Uvarint()
	default:
		return errWire
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return errWire
	}
	return nil
}

func decodeBool(r *binenc.Reader) (v, ok bool) {
	b := r.Take(1)
	if r.Err() != nil || b[0] > 1 {
		return false, false
	}
	return b[0] == 1, true
}

func decodeRange(r *binenc.Reader, strMode bool, m *wmsg) bool {
	var ok bool
	if m.bounded, ok = decodeBool(r); !ok {
		return false
	}
	if strMode {
		m.loS = string(r.Bytes())
		if m.bounded {
			m.hiS = string(r.Bytes())
		}
		return true
	}
	m.lo = r.Uvarint()
	if m.bounded {
		m.hi = r.Uvarint()
	}
	return true
}

// decodeKeyPayload decodes a key payload into m. String keys are copied out
// of the frame buffer either way. The read requests, whose keys nobody
// keeps past the answer, take one copy of the whole key region and hand out
// substrings of it — one allocation per message — while keys the receiver
// retains (an insert's, a scan page's) get a copy each, so that keeping one
// never pins the rest of its message.
func decodeKeyPayload(r *binenc.Reader, strMode, oneCopy bool, m *wmsg) {
	n := r.Count(maxWireKeys, 1) // 0 once r has failed
	if !strMode {
		for i := 0; i < n; i++ {
			m.keys = append(m.keys, r.Uvarint())
		}
		return
	}
	if !oneCopy {
		for i := 0; i < n; i++ {
			m.strs = append(m.strs, string(r.Bytes()))
		}
		return
	}
	if n == 0 {
		return
	}
	region := string(r.Rest())
	for i := 0; i < n; i++ {
		// Every length is still checked by the reader; a key's place in the
		// region is where the reader found it.
		k := r.Bytes()
		end := len(region) - r.Remaining()
		m.strs = append(m.strs, region[end-len(k):end])
	}
}

// writeWmsg encodes m into *buf and writes it as ONE Write call, so a
// transport fault (torn write, reorder) operates on whole messages the way
// FaultFS torn writes operate on whole WAL records. The buffer is reused
// across calls.
func writeWmsg(w io.Writer, buf *[]byte, m *wmsg) error {
	*buf = appendWmsg((*buf)[:0], m)
	_, err := w.Write(*buf)
	return err
}

// frameReader reads whole messages from a connection through one buffer it
// owns: each fill is a single Read of whatever the transport has, header
// and payload are checked and decoded in place, and bytes past the frame
// stay buffered for the next call — one read syscall per frame where a
// header-then-payload reader pays two.
type frameReader struct {
	buf  []byte
	r, w int // buf[r:w] is received and not yet decoded
}

// read decodes the next message from src into m. Any malformed input —
// short read, oversized length, checksum mismatch, grammar violation —
// returns an error (errWire or the transport's); never a panic, and m is
// meaningful only when the error is nil. A clean end of stream on a frame
// boundary is io.EOF; inside a frame it is io.ErrUnexpectedEOF.
func (f *frameReader) read(src io.Reader, strMode bool, m *wmsg) error {
	need := wireHeaderLen
	for {
		if f.w-f.r >= wireHeaderLen {
			plen := u32(f.buf[f.r+1:])
			if plen > maxWirePayload {
				return errWire
			}
			need = wireHeaderLen + int(plen)
		}
		if f.w-f.r >= need {
			break
		}
		f.reserve(need)
		n, err := src.Read(f.buf[f.w:])
		f.w += n
		if n == 0 && err != nil { // an error delivered with data resurfaces on the next Read
			if err == io.EOF && f.w > f.r {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	frame := f.buf[f.r : f.r+need]
	if f.r += need; f.r == f.w {
		f.r, f.w = 0, 0
	}
	payload := frame[wireHeaderLen:]
	if crc32.Checksum(payload, wireCRC) != u32(frame[5:]) {
		return errWire
	}
	return decodePayload(frame[0], strMode, payload, m)
}

// reserve makes room for a frame of need bytes starting at f.r. The buffer
// grows only when the frame cannot fit and drops back to wireBufLen once an
// outsized frame has been consumed; otherwise the unread tail moves to the
// front.
func (f *frameReader) reserve(need int) {
	switch {
	case need > len(f.buf), f.r == f.w && len(f.buf) > maxReuseFrame:
		buf := make([]byte, max(need, wireBufLen))
		f.w = copy(buf, f.buf[f.r:f.w])
		f.r, f.buf = 0, buf
	case len(f.buf)-f.r < need:
		f.w = copy(f.buf, f.buf[f.r:f.w])
		f.r = 0
	}
}

func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
