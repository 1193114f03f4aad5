package frame_test

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"learnedindex/internal/frame"
	"learnedindex/internal/frame/frametest"
)

// rawMsg is a message as the frame layer sees it: a kind and opaque bytes.
type rawMsg struct {
	kind    byte
	payload []byte
}

func rawEq(a, b rawMsg) bool { return a.kind == b.kind && bytes.Equal(a.payload, b.payload) }

// decodeRaw copies the payload out: it views the reader's buffer.
func decodeRaw(kind byte, payload []byte) (rawMsg, error) {
	return rawMsg{kind, slices.Clone(payload)}, nil
}

// chunkReader delivers data in reads whose sizes come from sizes, cycled:
// 1-byte reads, messages straddling reads, several messages in one read.
// With no sizes every read takes all that fits.
type chunkReader struct {
	data, sizes []byte
	i           int
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

// rawStream encodes count messages of random kinds and payloads, empty to
// several times the reader's initial buffer, deterministic from seed. ends[i]
// is the offset just past message i.
func rawStream(seed int64, count int) (stream []byte, want []rawMsg, ends []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		m := rawMsg{kind: byte(rng.Intn(256)), payload: make([]byte, rng.Intn([]int{1, 40, 300, 20000}[rng.Intn(4)]))}
		rng.Read(m.payload)
		base := len(stream)
		stream = append(frame.AppendHeader(stream, m.kind), m.payload...)
		frame.Seal(stream[base:])
		want, ends = append(want, m), append(ends, len(stream))
	}
	return stream, want, ends
}

// FuzzFrameReaderChunking: how a stream is cut into reads must not matter.
// A valid stream decodes to its messages under any chunking; cut anywhere
// it yields exactly the messages that arrived whole and then io.EOF (on a
// message boundary) or io.ErrUnexpectedEOF; with one bit flipped it yields
// the messages before the flip and then — unless the flip hit a kind byte,
// which the checksum does not cover — an error, identically under every
// chunking. Never a panic, never a message that is not in the stream.
func FuzzFrameReaderChunking(f *testing.F) {
	f.Add(int64(1), uint8(9), []byte{0}, uint16(0), uint32(0))             // 1-byte reads
	f.Add(int64(2), uint8(15), []byte{3, 0, 40, 7}, uint16(77), uint32(9)) // straddling reads
	f.Add(int64(3), uint8(12), []byte{255}, uint16(301), uint32(4000))     // several messages per read
	f.Add(int64(4), uint8(6), []byte{}, uint16(5), uint32(70))             // everything at once
	f.Add(int64(5), uint8(1), []byte{8, 1}, uint16(9), uint32(1<<31))      // cut inside a header
	f.Fuzz(func(t *testing.T, seed int64, n uint8, sizes []byte, cut uint16, flip uint32) {
		stream, want, ends := rawStream(seed, int(n%16))
		frametest.CheckStream(t, stream, want, int(cut), decodeRaw, rawEq)
		decode := func(b, sizes []byte) ([]rawMsg, error) {
			return frametest.Decode(&chunkReader{data: b, sizes: sizes}, decodeRaw)
		}
		whole := func(upto int) int { // messages that end at or before upto
			k, _ := slices.BinarySearch(ends, upto+1)
			return k
		}

		cutAt := int(cut) % (len(stream) + 1)
		got, err := decode(stream, sizes)
		if !slices.EqualFunc(got, want, rawEq) || err != io.EOF {
			t.Fatalf("intact stream: %d of %d messages, then %v", len(got), len(want), err)
		}
		got, err = decode(stream[:cutAt], sizes)
		k := whole(cutAt)
		wantErr := io.ErrUnexpectedEOF
		if cutAt == 0 || k > 0 && ends[k-1] == cutAt {
			wantErr = io.EOF
		}
		if !slices.EqualFunc(got, want[:k], rawEq) || err != wantErr {
			t.Fatalf("cut at %d of %d: %d messages then %v, want %d then %v", cutAt, len(stream), len(got), err, k, wantErr)
		}

		if len(stream) == 0 {
			return
		}
		bit := int(flip) % (len(stream) * 8)
		bad := slices.Clone(stream)
		bad[bit/8] ^= 1 << (bit % 8)
		got, err = decode(bad, sizes)
		atOnce, errOnce := decode(bad, nil)
		if !slices.EqualFunc(got, atOnce, rawEq) || err != errOnce {
			t.Fatalf("flipped bit %d: chunked decode gave %d messages then %v, at once %d then %v", bit, len(got), err, len(atOnce), errOnce)
		}
		k = whole(bit / 8)
		hitKind := bit/8 == 0 || k > 0 && ends[k-1] == bit/8
		if len(got) < k || !slices.EqualFunc(got[:k], want[:k], rawEq) || len(got) > k && !hitKind {
			t.Fatalf("flipped bit %d in message %d: decoded %d messages then %v", bit, k, len(got), err)
		}
	})
}
