package repl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

// goldenCatalog is one message of every kind in the replication catalog,
// with field values that reach multi-byte varints, empty and long keys.
func goldenCatalog(strMode bool) []msg {
	chunk := msg{kind: msgSnapChunk, strMode: strMode, keys: []uint64{0, 1, 127, 128, 1 << 40, ^uint64(0)}}
	frame := msg{kind: msgFrame, strMode: strMode, seq: 300, keys: []uint64{5, 1 << 63}}
	if strMode {
		chunk.keys, frame.keys = nil, nil
		chunk.strs = []string{"", "a", "doc-00000000042", strings.Repeat("z", 200), "\x00\xff"}
		frame.strs = []string{"k0001", ""}
	}
	return []msg{
		{kind: msgHello, strMode: strMode, epoch: 3, seq: needSnapSeq},
		{kind: msgPrimaryHello, strMode: strMode, epoch: 4, seq: 299},
		{kind: msgFenced, epoch: 5},
		{kind: msgSnapBegin, seq: 299, count: 7},
		chunk,
		{kind: msgSnapEnd, seq: 299},
		frame,
		{kind: msgHeartbeat, epoch: 4, seq: 300, nonce: 1 << 20},
		{kind: msgAck, seq: 300, nonce: 1 << 20},
	}
}

// TestWireGoldenBytes pins what wireVersion 1 means: a fixed stream holding
// one message of every kind, in both key modes, hashes to the same bytes,
// and every message decodes back to itself. A change to a hash is a wire
// version bump, never a refactor.
func TestWireGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		strMode bool
		sha256  string
	}{
		{false, "8888c7054a010705aa4d2c4c3517c15cc9d7e8927ff69399d3d7ed9a5e680278"},
		{true, "696fdf0a740724f1554027f4bf130a68d6492252e83cc6c1bb5fc351388c1368"},
	} {
		cat := goldenCatalog(tc.strMode)
		var stream []byte
		seen := map[byte]bool{}
		for i := range cat {
			stream = appendMsg(stream, &cat[i])
			seen[cat[i].kind] = true
		}
		if len(seen) != int(msgAck) {
			t.Fatalf("catalog holds %d kinds, want all %d", len(seen), msgAck)
		}
		sum := sha256.Sum256(stream)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("strMode=%v: wire stream hashes to %s, want %s", tc.strMode, got, tc.sha256)
		}
		// Walk the stream by its documented header, kind u8 | len u32 LE |
		// crc32c u32 LE, and decode each payload.
		for i := range cat {
			n := int(binary.LittleEndian.Uint32(stream[1:]))
			var m msg
			if err := decodePayload(stream[0], tc.strMode, stream[9:9+n], &m); err != nil || !msgEq(m, cat[i]) {
				t.Fatalf("strMode=%v: message %d decoded as %+v (%v), want %+v", tc.strMode, i, m, err, cat[i])
			}
			stream = stream[9+n:]
		}
	}
}
