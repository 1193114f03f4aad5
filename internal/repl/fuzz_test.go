package repl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"learnedindex/internal/frame/frametest"
)

// buildStream encodes count valid wire messages of every kind,
// deterministic from seed, returning the bytes and the originals for
// comparison.
func buildStream(seed int64, count int, strMode bool) ([]byte, []msg) {
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	var msgs []msg
	seq := uint64(0)
	for i := 0; i < count; i++ {
		var m msg
		switch rng.Intn(9) {
		case 0:
			seq++
			m = msg{kind: msgFrame, strMode: strMode, seq: seq}
			for j := rng.Intn(6); j > 0; j-- {
				if strMode {
					m.strs = append(m.strs, fmt.Sprintf("k%04d", rng.Intn(10000)))
				} else {
					m.keys = append(m.keys, uint64(rng.Intn(1_000_000)))
				}
			}
		case 1:
			m = msg{kind: msgHeartbeat, epoch: uint64(1 + rng.Intn(4)), seq: seq, nonce: uint64(rng.Intn(100))}
		case 2:
			m = msg{kind: msgAck, seq: uint64(rng.Intn(int(seq + 1))), nonce: uint64(rng.Intn(100))}
		case 3:
			m = msg{kind: msgSnapChunk, strMode: strMode}
			for j := rng.Intn(6); j > 0; j-- {
				if strMode {
					m.strs = append(m.strs, fmt.Sprintf("s%04d", rng.Intn(10000)))
				} else {
					m.keys = append(m.keys, uint64(rng.Intn(1_000_000)))
				}
			}
		case 4:
			m = msg{kind: msgSnapBegin, seq: seq, count: uint64(rng.Intn(1000))}
		case 5:
			m = msg{kind: msgSnapEnd, seq: seq}
		case 6:
			m = msg{kind: msgHello, strMode: strMode, epoch: uint64(rng.Intn(4)), seq: []uint64{seq, needSnapSeq}[rng.Intn(2)]}
		case 7:
			m = msg{kind: msgPrimaryHello, strMode: strMode, epoch: uint64(1 + rng.Intn(4)), seq: seq}
		case 8:
			m = msg{kind: msgFenced, epoch: uint64(1 + rng.Intn(4))}
		}
		out = appendMsg(out, &m)
		msgs = append(msgs, m)
	}
	return out, msgs
}

func msgEq(a, b msg) bool {
	return a.kind == b.kind && a.epoch == b.epoch && a.seq == b.seq &&
		a.count == b.count && a.nonce == b.nonce &&
		slices.Equal(a.keys, b.keys) && slices.Equal(a.strs, b.strs)
}

// FuzzReplStreamDecode is FuzzWALReplay's wire twin: a valid stream of the
// catalog's messages followed by arbitrary bytes, checked for the frame
// stream properties (frametest.CheckStream) through the catalog's decoder —
// replay neither loses nor invents: what decodes is precisely what was
// encoded.
func FuzzReplStreamDecode(f *testing.F) {
	f.Add(int64(1), uint8(4), false, []byte{})
	f.Add(int64(2), uint8(7), true, []byte("garbage trailing bytes"))
	f.Add(int64(3), uint8(0), false, []byte{0xff, 0x00, 0x07, 0x12})
	valid, _ := buildStream(99, 3, false)
	f.Add(int64(4), uint8(2), false, valid) // valid bytes as the "junk" tail
	f.Fuzz(func(t *testing.T, seed int64, n uint8, strMode bool, tail []byte) {
		prefix, want := buildStream(seed, int(n%16), strMode)
		stream := append(prefix, tail...)
		decode := func(kind byte, payload []byte) (m msg, err error) {
			err = decodePayload(kind, strMode, payload, &m)
			return m, err
		}
		frametest.CheckStream(t, stream, want, int(uint64(seed>>13)%uint64(len(stream)+1)), decode, msgEq)
	})
}
