package repl

import (
	"encoding/binary"
	"io"
	"testing"
)

// readOneMsg reads exactly one message off c — its header, then its
// payload — so a hand-driven peer leaves whatever follows in the
// connection.
func readOneMsg(t *testing.T, c Conn, strMode bool) msg {
	t.Helper()
	var hdr [9]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("read header: %v", err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[1:]))
	if _, err := io.ReadFull(c, payload); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	var m msg
	if err := decodePayload(hdr[0], strMode, payload, &m); err != nil {
		t.Fatalf("decode kind %d: %v", hdr[0], err)
	}
	return m
}

// TestPrimaryReadsAckPipelinedWithHello: a follower that writes its hello
// and an ack in one Write has both read. The primary reads the handshake and
// the ack stream of a connection through one reader, so bytes that arrived
// with the hello are not lost to the reader that follows it.
func TestPrimaryReadsAckPipelinedWithHello(t *testing.T) {
	peng := openEngine(t, false)
	defer peng.Close()
	tr := NewMemTransport()
	p, err := NewPrimary(peng, fastPrimaryOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for k := uint64(0); k < 3; k++ {
		if err := peng.CommitBatch([]uint64{k}); err != nil {
			t.Fatal(err)
		}
	}
	durable := peng.ReplDurableSeq()
	if durable == 0 {
		t.Fatal("no durable frames to ack")
	}
	if err := p.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	c, err := tr.Dial("prim")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out := appendMsg(nil, &msg{kind: msgHello, epoch: 1, seq: durable})
	out = appendMsg(out, &msg{kind: msgAck, seq: durable})
	if _, err := c.Write(out); err != nil {
		t.Fatal(err)
	}
	if m := readOneMsg(t, c, false); m.kind != msgPrimaryHello {
		t.Fatalf("handshake answered with kind %d", m.kind)
	}
	waitFor(t, "the ack written with the hello to be accounted", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		for pc := range p.conns {
			if pc.acked == durable {
				return true
			}
		}
		return false
	})
}

// TestFollowerAppliesFramePipelinedWithPrimaryHello: a primary that writes
// its hello and the first frame in one Write has the frame applied. The
// follower reads the handshake and the stream through one reader.
func TestFollowerAppliesFramePipelinedWithPrimaryHello(t *testing.T) {
	tr := NewMemTransport()
	ln, err := tr.Listen("prim")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	feng := openFollowerEngine(t, false)
	defer feng.Close()
	fol, err := NewFollower(feng, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()

	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if m := readOneMsg(t, c, false); m.kind != msgHello {
		t.Fatalf("follower opened with kind %d", m.kind)
	}
	out := appendMsg(nil, &msg{kind: msgPrimaryHello, epoch: 1, seq: 1})
	out = appendMsg(out, &msg{kind: msgFrame, seq: 1, keys: []uint64{7, 8, 9}})
	if _, err := c.Write(out); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame written with the hello to be applied", func() bool { return fol.AppliedSeq() == 1 })
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{7, 8, 9} {
		if !feng.Contains(k) {
			t.Fatalf("follower missing key %d of the pipelined frame", k)
		}
	}
}
