package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"learnedindex/internal/frame"
	"learnedindex/internal/frame/frametest"
)

// buildWireStream encodes count valid request/response messages (the full
// kind catalog), deterministic from seed, returning the bytes and the
// originals for comparison.
func buildWireStream(seed int64, count int, strMode bool) ([]byte, []wmsg) {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	var msgs []wmsg
	randKeys := func(m *wmsg) {
		for j := rng.Intn(6); j > 0; j-- {
			if strMode {
				// Empty keys, short keys, binary keys and keys long enough for
				// a two-byte length prefix.
				k := fmt.Sprintf("k%04d", rng.Intn(10000))
				switch rng.Intn(6) {
				case 0:
					k = ""
				case 1:
					b := make([]byte, rng.Intn(300))
					rng.Read(b)
					k = string(b)
				}
				m.strs = append(m.strs, k)
			} else {
				m.keys = append(m.keys, uint64(rng.Intn(1_000_000)))
			}
		}
	}
	randRange := func(m *wmsg) {
		m.bounded = rng.Intn(3) > 0
		if strMode {
			m.loS = fmt.Sprintf("a%03d", rng.Intn(1000))
			if m.bounded {
				m.hiS = fmt.Sprintf("z%03d", rng.Intn(1000))
			}
		} else {
			m.lo = uint64(rng.Intn(1_000_000))
			if m.bounded {
				m.hi = m.lo + uint64(rng.Intn(1_000_000))
			}
		}
	}
	for i := 0; i < count; i++ {
		m := wmsg{strMode: strMode}
		switch rng.Intn(12) {
		case 0:
			m.kind = msgHello
		case 1:
			m.kind = msgServerHello
			m.follower = rng.Intn(2) == 1
		case 2:
			m.kind = msgLookupBatch
			randKeys(&m)
		case 3:
			m.kind = msgPositions
			m.storeLen = uint64(rng.Intn(1 << 20))
			for j := rng.Intn(6); j > 0; j-- {
				m.pos = append(m.pos, rng.Intn(1<<20))
			}
		case 4:
			m.kind = msgContainsBatch
			randKeys(&m)
		case 5:
			m.kind = msgBools
			for j := rng.Intn(20); j > 0; j-- {
				m.bools = append(m.bools, rng.Intn(2) == 1)
			}
		case 6:
			m.kind = msgScan
			randRange(&m)
			m.limit = uint64(rng.Intn(1 << 16))
		case 7:
			m.kind = msgKeys
			m.more = rng.Intn(2) == 1
			randKeys(&m)
		case 8:
			m.kind = msgCountRange
			randRange(&m)
		case 9:
			m.kind = msgCount
			m.count = uint64(rng.Intn(1 << 20))
		case 10:
			m.kind = msgInsert
			randKeys(&m)
		case 11:
			switch rng.Intn(4) {
			case 0:
				m.kind = msgOK
			case 1:
				m.kind = msgStatus
			case 2:
				m.kind = msgErr
				m.errMsg = fmt.Sprintf("store unhappy %d", rng.Intn(100))
			case 3:
				m.kind = msgStatusInfo
				m.follower = rng.Intn(2) == 1
				m.connected = rng.Intn(2) == 1
				m.applied = uint64(rng.Intn(1 << 20))
				m.durable = m.applied + uint64(rng.Intn(100))
				m.lag = m.durable - m.applied
				m.epoch = uint64(rng.Intn(16))
				m.storeLen = uint64(rng.Intn(1 << 20))
			}
		}
		out = appendWmsg(out, &m)
		msgs = append(msgs, m)
	}
	return out, msgs
}

// rawFrame wraps an arbitrary payload in a valid header, so a malformed
// grammar reaches the payload decoder instead of dying on the checksum.
func rawFrame(kind byte, payload []byte) []byte {
	msg := append(frame.AppendHeader(nil, kind), payload...)
	frame.Seal(msg)
	return msg
}

// TestDecodeReadKeysOneCopy pins the read-request key decode, whose keys
// are substrings of one copy of the key region (the allocation count is
// guarded end to end by the router's TestRouterAllocsPerCall): every key
// comes out exact, nothing aliases the frame, and every malformed region is
// still an error.
func TestDecodeReadKeysOneCopy(t *testing.T) {
	req := wmsg{kind: msgLookupBatch, strMode: true}
	for i := 0; i < 64; i++ {
		req.strs = append(req.strs, fmt.Sprintf("doc-%011d", i*i))
	}
	req.strs[7], req.strs[40] = "", string(make([]byte, 200))
	payload := appendWmsg(nil, &req)[frame.HeaderLen:]
	var m wmsg
	for _, kind := range []byte{msgLookupBatch, msgContainsBatch} {
		work := slices.Clone(payload)
		if err := decodePayload(kind, true, work, &m); err != nil || !slices.Equal(m.strs, req.strs) {
			t.Fatalf("kind %d: err %v, %d keys", kind, err, len(m.strs))
		}
		for i := range work {
			work[i] = 0xee // the frame buffer moves on to the next message
		}
		if !slices.Equal(m.strs, req.strs) {
			t.Fatalf("kind %d: decoded keys alias the frame buffer", kind)
		}
	}
	for name, bad := range map[string][]byte{
		"length past the region": {2, 1, 'a', 200, 1, 'b', 'c'},
		"count past the region":  {9, 1, 'a'},
		"trailing byte":          {1, 1, 'a', 0},
		"truncated key":          {1, 5, 'a', 'b'},
		"no count":               {},
	} {
		if err := decodePayload(msgLookupBatch, true, bad, &m); err == nil {
			t.Fatalf("%s: decoded as %q", name, m.strs)
		}
	}
}

func wmsgEq(a, b wmsg) bool {
	return a.kind == b.kind && a.strMode == b.strMode &&
		a.follower == b.follower && a.connected == b.connected &&
		a.bounded == b.bounded && a.more == b.more &&
		a.lo == b.lo && a.hi == b.hi && a.loS == b.loS && a.hiS == b.hiS &&
		a.limit == b.limit && a.count == b.count &&
		a.applied == b.applied && a.durable == b.durable &&
		a.lag == b.lag && a.epoch == b.epoch && a.storeLen == b.storeLen &&
		slices.Equal(a.keys, b.keys) && slices.Equal(a.strs, b.strs) && slices.Equal(a.pos, b.pos) &&
		slices.Equal(a.bools, b.bools) && a.errMsg == b.errMsg
}

// FuzzServerDecode is FuzzReplStreamDecode's serving-plane twin: a valid
// stream of the catalog's messages followed by arbitrary bytes, checked for
// the frame stream properties (frametest.CheckStream) through the
// catalog's decoder.
func FuzzServerDecode(f *testing.F) {
	f.Add(int64(1), uint8(4), false, []byte{})
	f.Add(int64(2), uint8(7), true, []byte("garbage trailing bytes"))
	f.Add(int64(3), uint8(0), false, []byte{0xff, 0x00, 0x07, 0x12})
	valid, _ := buildWireStream(99, 3, false)
	f.Add(int64(4), uint8(2), false, valid) // valid bytes as the "junk" tail
	f.Add(int64(5), uint8(9), true, []byte{msgBools, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// String read requests whose keys share one copy of the key region: a
	// key length past the region, a count the region cannot hold, bytes
	// after the last key, and a well-formed one as the junk tail.
	f.Add(int64(6), uint8(3), true, rawFrame(msgLookupBatch, []byte{2, 1, 'a', 200, 1, 'b', 'c'}))
	f.Add(int64(7), uint8(5), true, rawFrame(msgContainsBatch, []byte{9, 1, 'a'}))
	f.Add(int64(8), uint8(1), true, rawFrame(msgLookupBatch, []byte{1, 1, 'a', 0}))
	f.Add(int64(9), uint8(8), true, rawFrame(msgContainsBatch, []byte{3, 0, 2, 'a', 'b', 1, 'c'}))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, strMode bool, tail []byte) {
		prefix, want := buildWireStream(seed, int(n%16), strMode)
		stream := append(prefix, tail...)
		decode := func(kind byte, payload []byte) (m wmsg, err error) {
			err = decodePayload(kind, strMode, payload, &m)
			return m, err
		}
		frametest.CheckStream(t, stream, want, int(uint64(seed>>13)%uint64(len(stream)+1)), decode, wmsgEq)
	})
}

// TestDecodeSlicesDoNotStayLarge: the slices a connection decodes into grow
// to fit a large message and do not stay large after it.
func TestDecodeSlicesDoNotStayLarge(t *testing.T) {
	big := wmsg{kind: msgKeys}
	for i := 0; i < maxReuseKeys+1000; i++ {
		big.keys = append(big.keys, 1<<62+uint64(i))
	}
	small := wmsg{kind: msgCount, count: 7}
	var m wmsg
	for i, want := range []*wmsg{&small, &big, &small} {
		payload := appendWmsg(nil, want)[frame.HeaderLen:]
		if err := decodePayload(want.kind, false, payload, &m); err != nil || !wmsgEq(m, *want) {
			t.Fatalf("message %d: err %v, kind %d with %d keys", i, err, m.kind, len(m.keys))
		}
	}
	if cap(m.keys) > maxReuseKeys {
		t.Fatalf("decode slices keep %d keys of capacity after a small message", cap(m.keys))
	}
}
