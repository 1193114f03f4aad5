package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func appendMsg(dst []byte, kind byte, payload []byte) []byte {
	base := len(dst)
	dst = append(AppendHeader(dst, kind), payload...)
	Seal(dst[base:])
	return dst
}

// TestFrameReaderBufferBounds: the buffer a connection reuses grows to fit
// a large message and does not stay large after it.
func TestFrameReaderBufferBounds(t *testing.T) {
	small, big := []byte{7}, bytes.Repeat([]byte{0xa5}, maxReuse+1000)
	stream := appendMsg(appendMsg(appendMsg(nil, 1, small), 2, big), 3, small)
	in := NewReader(bytes.NewReader(stream))
	for i, want := range [][]byte{small, big, small} {
		kind, payload, err := in.Next()
		if err != nil || kind != byte(i+1) || !bytes.Equal(payload, want) {
			t.Fatalf("message %d: err %v, kind %d, %d payload bytes", i, err, kind, len(payload))
		}
	}
	if _, _, err := in.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v", err)
	}
	if len(in.buf) > maxReuse {
		t.Fatalf("buffer still holds %d bytes after the large message was consumed", len(in.buf))
	}
}

// TestFrameReaderHostileLength: a length past MaxPayload is corruption,
// found before the buffer grows for it.
func TestFrameReaderHostileLength(t *testing.T) {
	hdr := AppendHeader(nil, 1)
	binary.LittleEndian.PutUint32(hdr[1:], MaxPayload+1)
	in := NewReader(bytes.NewReader(hdr))
	if _, _, err := in.Next(); err != ErrCorrupt {
		t.Fatalf("length %d: %v, want ErrCorrupt", MaxPayload+1, err)
	}
	if len(in.buf) != bufLen {
		t.Fatalf("buffer grew to %d for a hostile length", len(in.buf))
	}
}
