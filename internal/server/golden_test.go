package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
)

// goldenCatalog is one message of every kind in the serving catalog, with
// field values that reach multi-byte varints, empty and long keys, a bitset
// spanning two bytes and both range forms.
func goldenCatalog(strMode bool) []wmsg {
	keys := []uint64{0, 1, 127, 128, 1 << 40, ^uint64(0)}
	var strs []string
	if strMode {
		keys, strs = nil, []string{"", "a", "doc-00000000042", strings.Repeat("z", 200), "\x00\xff"}
	}
	bounded := wmsg{kind: msgScan, strMode: strMode, bounded: true, lo: 10, hi: 1 << 33, loS: "a", hiS: "m\x00", limit: 4096}
	open := wmsg{kind: msgCountRange, strMode: strMode, lo: 1 << 50, loS: "q"}
	if strMode {
		bounded.lo, bounded.hi, open.lo = 0, 0, 0
	} else {
		bounded.loS, bounded.hiS, open.loS = "", "", ""
	}
	return []wmsg{
		{kind: msgHello, strMode: strMode},
		{kind: msgServerHello, strMode: strMode, follower: true},
		{kind: msgLookupBatch, strMode: strMode, keys: keys, strs: strs},
		{kind: msgPositions, strMode: strMode, storeLen: 1 << 20, pos: []int{0, 5, 999, 1 << 20}},
		{kind: msgContainsBatch, strMode: strMode, keys: keys, strs: strs},
		{kind: msgBools, strMode: strMode, bools: []bool{true, false, true, true, false, false, false, false, true}},
		bounded,
		{kind: msgKeys, strMode: strMode, more: true, keys: keys, strs: strs},
		open,
		{kind: msgCount, strMode: strMode, count: 123456},
		{kind: msgInsert, strMode: strMode, keys: keys, strs: strs},
		{kind: msgOK, strMode: strMode},
		{kind: msgErr, strMode: strMode, errMsg: "serve: follower store is read-only"},
		{kind: msgStatus, strMode: strMode},
		{kind: msgStatusInfo, strMode: strMode, follower: true, connected: true, applied: 77, durable: 80, lag: 3, epoch: 2, storeLen: 5000},
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
		{false, "b9740d2c8628625cfe323bdfb1da5d35603ee38a4b6a83043401b285c0bc1795"},
		{true, "f4363e72048dbf71fd7ff1c4653c612848fc7f4b51ffbc2d7a5590f8b673be09"},
	} {
		cat := goldenCatalog(tc.strMode)
		var stream []byte
		seen := map[byte]bool{}
		for i := range cat {
			stream = appendWmsg(stream, &cat[i])
			seen[cat[i].kind] = true
		}
		if len(seen) != int(msgStatusInfo) {
			t.Fatalf("catalog holds %d kinds, want all %d", len(seen), msgStatusInfo)
		}
		sum := sha256.Sum256(stream)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("strMode=%v: wire stream hashes to %s, want %s", tc.strMode, got, tc.sha256)
		}
		// Walk the stream by its documented header, kind u8 | len u32 LE |
		// crc32c u32 LE, and decode each payload.
		for i := range cat {
			n := int(binary.LittleEndian.Uint32(stream[1:]))
			var m wmsg
			if err := decodePayload(stream[0], tc.strMode, stream[9:9+n], &m); err != nil || !wmsgEq(m, cat[i]) {
				t.Fatalf("strMode=%v: message %d decoded as %+v (%v), want %+v", tc.strMode, i, m, err, cat[i])
			}
			stream = stream[9+n:]
		}
	}
}
