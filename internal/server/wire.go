// Package server is the network serving plane: a binary wire protocol that
// fronts a serve.Store with the batch RPCs the in-process API already
// amortizes — LookupBatch, ContainsBatch, paged Scan, CountRange, and
// group-commit durable inserts. The wire shares the replication plane's
// framing, internal/frame — kind + length + crc32c, one buffered reader,
// exactly one Write call per message so transport faults (torn writes,
// reorders) operate on whole messages — and its panic-free bounded decoding
// through binenc.
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

	"learnedindex/internal/binenc"
	"learnedindex/internal/frame"
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
	// maxWireKeys bounds a single message's key count so a hostile count
	// can never size an allocation.
	maxWireKeys = 1 << 21
	// maxReuseKeys caps the decode slices a connection keeps between
	// messages: one huge batch must not pin its memory for the
	// connection's lifetime.
	maxReuseKeys = 1 << 16
)

// errWire is a payload that violates the message grammar, or an answer
// that does not fit its request. Receivers treat it as a broken
// connection, never as data.
var errWire = errors.New("server: corrupt wire frame")

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
	dst = frame.AppendHeader(dst, m.kind)
	switch m.kind {
	case msgHello:
		dst = binenc.AppendUvarint(dst, wireVersion)
		dst = binenc.AppendBool(dst, m.strMode)
	case msgServerHello:
		dst = binenc.AppendUvarint(dst, wireVersion)
		dst = binenc.AppendBool(dst, m.strMode)
		dst = binenc.AppendBool(dst, m.follower)
	case msgKeys:
		dst = binenc.AppendBool(dst, m.more)
		fallthrough
	case msgLookupBatch, msgContainsBatch, msgInsert:
		if m.strMode {
			dst = binenc.AppendStrings(dst, m.strs)
		} else {
			dst = binenc.AppendUvarints(dst, m.keys)
		}
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
	case msgCountRange:
		dst = appendRange(dst, m)
	case msgCount:
		dst = binenc.AppendUvarint(dst, m.count)
	case msgOK, msgStatus:
		// empty payload
	case msgErr:
		dst = binenc.AppendBytes(dst, []byte(m.errMsg))
	case msgStatusInfo:
		dst = binenc.AppendBool(dst, m.follower)
		dst = binenc.AppendBool(dst, m.connected)
		dst = binenc.AppendUvarint(dst, m.applied)
		dst = binenc.AppendUvarint(dst, m.durable)
		dst = binenc.AppendUvarint(dst, m.lag)
		dst = binenc.AppendUvarint(dst, m.epoch)
		dst = binenc.AppendUvarint(dst, m.storeLen)
	default:
		panic(fmt.Sprintf("server: encode of unknown message kind %d", m.kind))
	}
	frame.Seal(dst[base:])
	return dst
}

// appendRange encodes a scan/count range: a bounded flag, the low bound,
// and — only when bounded — the high bound. The open-ended form exists for
// string mode, where there is no cheap "past every key" sentinel.
func appendRange(dst []byte, m *wmsg) []byte {
	dst = binenc.AppendBool(dst, m.bounded)
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

// decodePayload decodes one message payload into m (kind comes from the
// frame header, strMode from the handshake), reusing m's slices. Panic-free
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
		m.strMode = r.Bool()
		if kind == msgServerHello {
			m.follower = r.Bool()
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
		decodeRange(r, strMode, m)
		m.limit = r.Uvarint()
	case msgKeys:
		m.more = r.Bool()
		decodeKeyPayload(r, strMode, false, m)
	case msgCountRange:
		decodeRange(r, strMode, m)
	case msgCount:
		m.count = r.Uvarint()
	case msgOK, msgStatus:
		// empty payload
	case msgErr:
		m.errMsg = string(r.Bytes())
	case msgStatusInfo:
		m.follower = r.Bool()
		m.connected = r.Bool()
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

func decodeRange(r *binenc.Reader, strMode bool, m *wmsg) {
	m.bounded = r.Bool()
	if strMode {
		m.loS = string(r.Bytes())
		if m.bounded {
			m.hiS = string(r.Bytes())
		}
		return
	}
	m.lo = r.Uvarint()
	if m.bounded {
		m.hi = r.Uvarint()
	}
}

// decodeKeyPayload decodes a key payload into m. String keys are copied out
// of the frame buffer either way. The read requests, whose keys nobody
// keeps past the answer, take one copy of the whole key region and hand out
// substrings of it — one allocation per message — while keys the receiver
// retains (an insert's, a scan page's) get a copy each (binenc's Strings),
// so that keeping one never pins the rest of its message.
func decodeKeyPayload(r *binenc.Reader, strMode, oneCopy bool, m *wmsg) {
	switch {
	case !strMode:
		m.keys = r.Uvarints(m.keys, maxWireKeys)
		return
	case !oneCopy:
		m.strs = r.Strings(m.strs, maxWireKeys)
		return
	}
	n := r.Count(maxWireKeys, 1) // 0 once r has failed
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

// recvWmsg reads the next message from in and decodes it into m. Malformed
// input — a short read, an oversized length, a checksum mismatch, a grammar
// violation — is an error (frame.ErrCorrupt, errWire or the transport's),
// never a panic, and m is meaningful only when the error is nil. A clean
// end of stream on a message boundary is io.EOF.
func recvWmsg(in *frame.Reader, strMode bool, m *wmsg) error {
	kind, payload, err := in.Next()
	if err != nil {
		return err
	}
	return decodePayload(kind, strMode, payload, m)
}
