package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"
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
	m := wmsg{kind: msgOK}
	frame := appendWmsg(nil, &m)
	frame[0] = kind
	frame = append(frame, payload...)
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:], crc32.Checksum(payload, wireCRC))
	return frame
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
	frame := appendWmsg(nil, &req)
	payload := frame[wireHeaderLen:]
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

// decodeAllWire reads messages until the first error, bounded (a hostile
// stream must not loop forever). Never panics — that is the property under
// test.
func decodeAllWire(stream []byte, strMode bool, limit int) []wmsg {
	r := bytes.NewReader(stream)
	var in frameReader
	var out []wmsg
	for len(out) < limit {
		var m wmsg
		if err := in.read(r, strMode, &m); err != nil {
			break
		}
		out = append(out, m)
	}
	return out
}

// FuzzServerDecode is FuzzReplStreamDecode's serving-plane twin: a valid
// message prefix followed by arbitrary bytes. The decoder must never
// panic, must reproduce every intact prefix message bit-exactly, and
// truncating the stream anywhere must yield a prefix of the full decode.
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
		count := int(n % 16)
		prefix, want := buildWireStream(seed, count, strMode)
		stream := append(append([]byte{}, prefix...), tail...)

		got := decodeAllWire(stream, strMode, count+len(tail)+16)
		if len(got) < count {
			t.Fatalf("decoded %d of %d intact prefix messages", len(got), count)
		}
		for i := 0; i < count; i++ {
			if !wmsgEq(got[i], want[i]) {
				t.Fatalf("prefix message %d decoded as %+v, want %+v", i, got[i], want[i])
			}
		}

		// Truncation anywhere: still no panic, and the result is a strict
		// prefix of the full decode (a half-received stream never yields a
		// message the full stream would not).
		cut := int(uint64(seed>>13) % uint64(len(stream)+1))
		trunc := decodeAllWire(stream[:cut], strMode, len(got)+1)
		if len(trunc) > len(got) {
			t.Fatalf("truncated stream decoded MORE messages (%d > %d)", len(trunc), len(got))
		}
		for i := range trunc {
			if !wmsgEq(trunc[i], got[i]) {
				t.Fatalf("truncated decode diverged at message %d", i)
			}
		}
	})
}

// chunkReader delivers data in reads whose sizes come from sizes (cycled):
// 1-byte reads, frames straddling reads, several frames in one read. With
// no sizes every read takes all that fits.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(r.sizes) > 0 {
		n = min(n, 1+int(r.sizes[r.i%len(r.sizes)]))
		r.i++
	}
	n = copy(p[:n], r.data)
	r.data = r.data[n:]
	return n, nil
}

// decodeChunked decodes stream to its first error, which it returns too.
func decodeChunked(stream, sizes []byte, strMode bool) ([]wmsg, error) {
	r := &chunkReader{data: stream, sizes: sizes}
	var in frameReader
	var out []wmsg
	for {
		var m wmsg
		if err := in.read(r, strMode, &m); err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

func wmsgsEq(a, b []wmsg) bool { return slices.EqualFunc(a, b, wmsgEq) }

// FuzzFrameReaderChunking: how a stream is cut into reads must not matter.
// A valid stream decodes to its messages under any chunking; cut anywhere
// it yields exactly the messages that arrived whole and then an error;
// with one bit flipped it yields the messages before the flip and then —
// unless the flip turned one kind byte into another valid kind, which the
// payload checksum does not cover — an error, identically under every
// chunking. Never a panic, never a message that is not in the stream.
func FuzzFrameReaderChunking(f *testing.F) {
	f.Add(int64(1), uint8(9), false, []byte{0}, uint16(0), uint32(0))            // 1-byte reads
	f.Add(int64(2), uint8(15), true, []byte{3, 0, 40, 7}, uint16(77), uint32(9)) // straddling reads
	f.Add(int64(3), uint8(12), false, []byte{255}, uint16(301), uint32(4000))    // several frames per read
	f.Add(int64(4), uint8(6), true, []byte{}, uint16(5), uint32(70))             // everything at once
	f.Add(int64(5), uint8(1), false, []byte{8, 1}, uint16(9), uint32(1<<31))     // cut inside a header
	f.Fuzz(func(t *testing.T, seed int64, n uint8, strMode bool, sizes []byte, cut uint16, flip uint32) {
		stream, want := buildWireStream(seed, int(n%16), strMode)
		ends := make([]int, len(want)) // ends[i]: offset just past message i
		for i := range want {
			ends[i] = len(appendWmsg(stream[:0:0], &want[i]))
			if i > 0 {
				ends[i] += ends[i-1]
			}
		}
		whole := func(upto int) int { // messages that end at or before upto
			k, _ := slices.BinarySearch(ends, upto+1)
			return k
		}

		got, err := decodeChunked(stream, sizes, strMode)
		if !wmsgsEq(got, want) || err != io.EOF {
			t.Fatalf("intact stream: %d of %d messages, then %v", len(got), len(want), err)
		}

		cutAt := int(cut) % (len(stream) + 1)
		got, err = decodeChunked(stream[:cutAt], sizes, strMode)
		k := whole(cutAt)
		wantErr := io.ErrUnexpectedEOF
		if cutAt == 0 || k > 0 && ends[k-1] == cutAt {
			wantErr = io.EOF
		}
		if !wmsgsEq(got, want[:k]) || err != wantErr {
			t.Fatalf("cut at %d of %d: %d messages then %v, want %d then %v", cutAt, len(stream), len(got), err, k, wantErr)
		}

		if len(stream) == 0 {
			return
		}
		bit := int(flip) % (len(stream) * 8)
		bad := slices.Clone(stream)
		bad[bit/8] ^= 1 << (bit % 8)
		got, err = decodeChunked(bad, sizes, strMode)
		atOnce, errOnce := decodeChunked(bad, nil, strMode)
		if !wmsgsEq(got, atOnce) || err.Error() != errOnce.Error() {
			t.Fatalf("flipped bit %d: chunked decode gave %d messages then %v, at-once %d then %v", bit, len(got), err, len(atOnce), errOnce)
		}
		k = whole(bit / 8)
		hitKind := bit/8 == 0 || k > 0 && ends[k-1] == bit/8
		if len(got) < k || !wmsgsEq(got[:k], want[:k]) || len(got) > k && !hitKind {
			t.Fatalf("flipped bit %d in message %d: decoded %d messages then %v", bit, k, len(got), err)
		}
	})
}

// TestFrameReaderBufferBounds: the buffers a connection reuses grow to fit a
// large message and do not stay large after it.
func TestFrameReaderBufferBounds(t *testing.T) {
	big := wmsg{kind: msgKeys}
	for i := 0; i < 150_000; i++ {
		big.keys = append(big.keys, 1<<62+uint64(i))
	}
	small := wmsg{kind: msgCount, count: 7}
	stream := appendWmsg(appendWmsg(appendWmsg(nil, &small), &big), &small)
	if len(stream) < maxReuseFrame || len(big.keys) < maxReuseKeys {
		t.Fatalf("test message too small: %d bytes, %d keys", len(stream), len(big.keys))
	}
	r := &chunkReader{data: stream, sizes: []byte{200}}
	var in frameReader
	var m wmsg
	for i, want := range []*wmsg{&small, &big, &small} {
		if err := in.read(r, false, &m); err != nil || !wmsgEq(m, *want) {
			t.Fatalf("message %d: err %v, kind %d with %d keys", i, err, m.kind, len(m.keys))
		}
	}
	if cap(m.keys) > maxReuseKeys {
		t.Fatalf("decode slices keep %d keys of capacity after a small message", cap(m.keys))
	}
	if err := in.read(r, false, &m); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if len(in.buf) > maxReuseFrame {
		t.Fatalf("frame buffer still holds %d bytes after the large frame was consumed", len(in.buf))
	}
}
