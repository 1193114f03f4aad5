// Package repl is the WAL-shipping replication plane: a primary ships the
// storage engine's durable frame stream (see storage.ReplFrame) to
// followers that replay it into their own engines and ack their durable
// horizon back. The wire protocol reuses the WAL's defensive posture —
// internal/frame's length + crc32c framing, the WAL's key payloads,
// panic-free bounded decoding — and the failure plane reuses the
// vfs.FaultFS idea on the connection seam (FaultNet), so the whole plane is
// provable under seeded chaos the same way the single-node durability
// contract is.
//
// Scope: crash-consistent replication with epoch fencing. Leader election,
// automatic failover, and quorum acks are explicitly out of scope; an
// operator (or an external coordination service) assigns epochs.
package repl

import (
	"errors"
	"fmt"

	"learnedindex/internal/binenc"
	"learnedindex/internal/frame"
)

// wireVersion is bumped on any incompatible message-grammar change; the
// handshake rejects mismatches outright rather than guessing.
const wireVersion = 1

// Message kinds. The handshake is hello/primaryHello; after it the primary
// sends snap*/frame/heartbeat and the follower answers ack (or fenced, once,
// when the primary's epoch is stale).
const (
	msgHello        = byte(1) // follower→primary: version, mode, maxEpoch, appliedSeq
	msgPrimaryHello = byte(2) // primary→follower: version, mode, epoch, durableSeq
	msgFenced       = byte(3) // follower→primary: maxEpoch — "you are deposed"
	msgSnapBegin    = byte(4) // primary→follower: snapSeq, total key count
	msgSnapChunk    = byte(5) // primary→follower: one key-payload chunk
	msgSnapEnd      = byte(6) // primary→follower: snapSeq again (integrity nit)
	msgFrame        = byte(7) // primary→follower: frame seq + key payload
	msgHeartbeat    = byte(8) // primary→follower: epoch, durableSeq, nonce
	msgAck          = byte(9) // follower→primary: appliedSeq, echoed nonce
)

// maxWireKeys bounds a single message's key count so a hostile count can
// never size an allocation (the WAL frames shipped are far below).
const maxWireKeys = 1 << 21

// errWire is a payload that violates the message grammar, or a message out
// of place in the protocol. Receivers treat it as a broken connection,
// never as data.
var errWire = errors.New("repl: corrupt wire frame")

// msg is the decoded form of every wire message; kind selects which fields
// are meaningful. One struct (rather than one type per kind) keeps the
// decoder allocation-free on the hot frame path.
type msg struct {
	kind    byte
	strMode bool     // hello/primaryHello: key mode flag
	epoch   uint64   // hello(maxEpoch), primaryHello, fenced, heartbeat
	seq     uint64   // frame, snapBegin/End, hello/ack(applied), heartbeat(durable)
	count   uint64   // snapBegin: total snapshot keys
	nonce   uint64   // heartbeat/ack: RTT echo
	keys    []uint64 // frame/snapChunk, uint64 mode
	strs    []string // frame/snapChunk, string mode
}

// appendMsg encodes m as one wire message appended to dst.
func appendMsg(dst []byte, m *msg) []byte {
	base := len(dst)
	dst = frame.AppendHeader(dst, m.kind)
	switch m.kind {
	case msgHello, msgPrimaryHello:
		dst = binenc.AppendUvarint(dst, wireVersion)
		dst = binenc.AppendBool(dst, m.strMode)
		dst = binenc.AppendUvarint(dst, m.epoch)
		dst = binenc.AppendUvarint(dst, m.seq)
	case msgFenced:
		dst = binenc.AppendUvarint(dst, m.epoch)
	case msgSnapBegin:
		dst = binenc.AppendUvarint(dst, m.seq)
		dst = binenc.AppendUvarint(dst, m.count)
	case msgSnapEnd:
		dst = binenc.AppendUvarint(dst, m.seq)
	case msgFrame:
		dst = binenc.AppendUvarint(dst, m.seq)
		fallthrough
	case msgSnapChunk:
		if m.strMode {
			dst = binenc.AppendStrings(dst, m.strs)
		} else {
			dst = binenc.AppendUvarints(dst, m.keys)
		}
	case msgHeartbeat:
		dst = binenc.AppendUvarint(dst, m.epoch)
		dst = binenc.AppendUvarint(dst, m.seq)
		dst = binenc.AppendUvarint(dst, m.nonce)
	case msgAck:
		dst = binenc.AppendUvarint(dst, m.seq)
		dst = binenc.AppendUvarint(dst, m.nonce)
	default:
		panic(fmt.Sprintf("repl: encode of unknown message kind %d", m.kind))
	}
	frame.Seal(dst[base:])
	return dst
}

// decodePayload decodes one message payload of the given kind (from the
// frame header) into m. Panic-free by construction: every read goes through
// the latching binenc.Reader, counts are bounded before any allocation, and
// trailing garbage is an error. strMode selects the key grammar for
// frame/snapChunk payloads (known from the handshake). Decoded keys are
// fresh slices: queued messages outlive the frame buffer.
func decodePayload(kind byte, strMode bool, payload []byte, m *msg) error {
	*m = msg{kind: kind}
	r := binenc.NewReader(payload)
	switch kind {
	case msgHello, msgPrimaryHello:
		if v := r.Uvarint(); r.Err() == nil && v != wireVersion {
			return fmt.Errorf("repl: wire version %d, want %d", v, wireVersion)
		}
		m.strMode = r.Bool()
		m.epoch = r.Uvarint()
		m.seq = r.Uvarint()
	case msgFenced:
		m.epoch = r.Uvarint()
	case msgSnapBegin:
		m.seq = r.Uvarint()
		m.count = r.Uvarint()
	case msgSnapEnd:
		m.seq = r.Uvarint()
	case msgFrame:
		m.seq = r.Uvarint()
		fallthrough
	case msgSnapChunk:
		if strMode {
			m.strs = r.Strings(nil, maxWireKeys)
		} else {
			m.keys = r.Uvarints(nil, maxWireKeys)
		}
	case msgHeartbeat:
		m.epoch = r.Uvarint()
		m.seq = r.Uvarint()
		m.nonce = r.Uvarint()
	case msgAck:
		m.seq = r.Uvarint()
		m.nonce = r.Uvarint()
	default:
		return errWire
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return errWire
	}
	return nil
}

// writeMsg encodes m and writes it on w as one message.
func writeMsg(w *frame.Writer, m *msg) error { return w.Send(appendMsg(w.Buf(), m)) }

// recvMsg reads the next message from r and decodes it into m. Malformed
// input — a short read, an oversized length, a checksum mismatch, a grammar
// violation — is an error (frame.ErrCorrupt, errWire or the transport's),
// never a panic, and m is meaningful only when the error is nil.
func recvMsg(r *frame.Reader, strMode bool, m *msg) error {
	kind, payload, err := r.Next()
	if err != nil {
		return err
	}
	return decodePayload(kind, strMode, payload, m)
}
