package server

import (
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/frame"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
)

// rawConn speaks the wire by hand, so a test can misbehave in ways Client
// will not: stay silent, pipeline, never drain.
type rawConn struct {
	t  *testing.T
	c  repl.Conn
	in *frame.Reader
}

func dialRaw(t *testing.T, tr repl.Transport, addr string, strMode bool) *rawConn {
	t.Helper()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	r := &rawConn{t: t, c: c, in: frame.NewReader(c)}
	r.send(&wmsg{kind: msgHello, strMode: strMode})
	if m := r.recv(strMode); m.kind != msgServerHello {
		t.Fatalf("handshake answered with kind %d", m.kind)
	}
	return r
}

func (r *rawConn) send(ms ...*wmsg) {
	r.t.Helper()
	var buf []byte
	for _, m := range ms {
		buf = appendWmsg(buf, m)
	}
	if _, err := r.c.Write(buf); err != nil {
		r.t.Fatalf("write: %v", err)
	}
}

func (r *rawConn) recv(strMode bool) *wmsg {
	r.t.Helper()
	var m wmsg
	if err := recvWmsg(r.in, strMode, &m); err != nil {
		r.t.Fatalf("read: %v", err)
	}
	return &m
}

// closedAfter blocks until the peer closes the connection and returns how
// long that took.
func (r *rawConn) closedAfter() time.Duration {
	start := time.Now()
	io.Copy(io.Discard, r.c)
	return time.Since(start)
}

func timeouts(st *serve.Store) int64 { return st.Metrics().Counter("lix_server_timeouts_total") }

// TestServerIdleTimeout: a connection that goes silent is closed
// IdleTimeout after it went silent — the clock restarts with every request,
// it does not run from the accept — and lix_server_timeouts_total counts
// the close once.
func TestServerIdleTimeout(t *testing.T) {
	const idle = 120 * time.Millisecond
	st := serve.New([]uint64{1, 2, 3}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	_, tr := startServer(t, st, Options{IdleTimeout: idle})

	r := dialRaw(t, tr, "node0", false)
	// Most of one idle period passes, then a request: the connection must
	// survive past accept+idle, and die idle after the request's answer.
	time.Sleep(idle * 3 / 4)
	r.send(&wmsg{kind: msgStatus})
	if m := r.recv(false); m.kind != msgStatusInfo || m.storeLen != 3 {
		t.Fatalf("status answered %+v", m)
	}
	if took := r.closedAfter(); took < idle*9/10 || took > 10*idle {
		t.Fatalf("silent connection closed after %v, IdleTimeout is %v", took, idle)
	}
	if n := timeouts(st); n != 1 {
		t.Fatalf("lix_server_timeouts_total = %d, want 1", n)
	}
	time.Sleep(idle * 3 / 2)
	if n := timeouts(st); n != 1 {
		t.Fatalf("lix_server_timeouts_total = %d after another idle period: the close was counted again", n)
	}
	if st.Metrics().Counter("lix_server_wire_errors_total") > 1 {
		t.Fatal("one watchdog close was counted as several wire errors")
	}
}

// TestServerWriteTimeout: a client that sends requests and never drains the
// answers is closed WriteTimeout after the write that blocked began, and the
// close is counted once. Two pipelined scans whose pages overfill the
// in-memory transport's buffer make the second response write block.
func TestServerWriteTimeout(t *testing.T) {
	const writeTO = 100 * time.Millisecond
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = 1<<62 + uint64(i) // 9 wire bytes per key: a page is ~590 KB
	}
	st := serve.New(keys, core.Config{}, serve.Options{Shards: 2})
	defer st.Close()
	_, tr := startServer(t, st, Options{WriteTimeout: writeTO, IdleTimeout: 10 * time.Second})

	r := dialRaw(t, tr, "node0", false)
	scan := &wmsg{kind: msgScan, limit: 1 << 16}
	start := time.Now()
	r.send(scan, scan) // one Write: the second request rides in the first's read
	for timeouts(st) == 0 {
		if time.Since(start) > 50*writeTO {
			t.Fatal("a client that never drains was never timed out")
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took < writeTO*9/10 {
		t.Fatalf("stalled write timed out after %v, WriteTimeout is %v", took, writeTO)
	}
	// The first page was written whole before the stall and is still there
	// to read; the second never made it.
	if m := r.recv(false); m.kind != msgKeys || len(m.keys) != 1<<16 {
		t.Fatalf("first page: kind %d, %d keys", m.kind, len(m.keys))
	}
	var m wmsg
	if err := recvWmsg(r.in, false, &m); err == nil {
		t.Fatal("second page arrived after the watchdog closed the connection")
	}
	if n := timeouts(st); n != 1 {
		t.Fatalf("lix_server_timeouts_total = %d, want 1", n)
	}
}

// muteServer completes handshakes on addr and then reads requests without
// ever answering one.
func muteServer(t *testing.T, tr repl.Transport, addr string) {
	t.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				in := frame.NewReader(c)
				var m wmsg
				if recvWmsg(in, false, &m) != nil {
					return
				}
				c.Write(appendWmsg(nil, &wmsg{kind: msgServerHello}))
				for recvWmsg(in, false, &m) == nil {
				}
			}()
		}
	}()
}

// TestClientTimeout: an RPC against a server that accepts and never answers
// fails ClientOptions.Timeout after the RPC started — not after the dial —
// and a connection merely idle for longer than Timeout is left alone.
func TestClientTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	tr := repl.NewMemTransport()
	muteServer(t, tr, "mute")
	c, err := Dial(tr, "mute", false, ClientOptions{Timeout: timeout})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	time.Sleep(timeout * 3 / 4)
	start := time.Now()
	_, err = c.ContainsBatch([]uint64{1})
	if took := time.Since(start); err == nil || took < timeout*9/10 || took > 10*timeout {
		t.Fatalf("RPC against a mute server: err %v after %v, Timeout is %v", err, took, timeout)
	}

	st := serve.New([]uint64{1, 2, 3}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	srv := NewServer(st, Options{})
	if err := srv.Serve(tr, "node0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	idle, err := Dial(tr, "node0", false, ClientOptions{Timeout: timeout})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer idle.Close()
	time.Sleep(timeout * 2)
	if bs, err := idle.ContainsBatch([]uint64{2, 9}); err != nil || !bs[0] || bs[1] {
		t.Fatalf("RPC on a connection idle for two timeouts: %v, %v", bs, err)
	}
}

// TestClientResultsSurviveNextRPC: what a blocking method returned belongs
// to the caller — the next RPC on the same client, which decodes into the
// same buffers, must not change it.
func TestClientResultsSurviveNextRPC(t *testing.T) {
	keys := make([]uint64, 1000)
	strs := make([]string, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 2
		strs[i] = fmt.Sprintf("k%04d", i*2)
	}
	st := serve.New(keys, core.Config{}, serve.Options{Shards: 2})
	defer st.Close()
	_, tr := startServer(t, st, Options{})
	c, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	evens, odds := []uint64{0, 2, 4, 6, 8, 10}, []uint64{1, 3, 5, 7, 9, 11}
	bs, err := c.ContainsBatch(evens)
	if err != nil {
		t.Fatal(err)
	}
	pos, _, err := c.LookupBatch(evens)
	if err != nil {
		t.Fatal(err)
	}
	page, _, err := c.Scan(0, 12, true, 100)
	if err != nil {
		t.Fatal(err)
	}
	wantBs, wantPos, wantPage := slices.Clone(bs), slices.Clone(pos), slices.Clone(page)
	if _, err := c.ContainsBatch(odds); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LookupBatch([]uint64{1500, 1600, 1700, 1800, 1900, 1998}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Scan(1000, 1012, true, 100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bs, wantBs) || !slices.Equal(pos, wantPos) || !slices.Equal(page, wantPage) {
		t.Fatalf("results changed under the next RPC: %v %v %v, were %v %v %v", bs, pos, page, wantBs, wantPos, wantPage)
	}

	sst := serve.NewString(strs, core.Config{}, serve.Options{Shards: 2})
	defer sst.Close()
	ssrv := NewServer(sst, Options{})
	if err := ssrv.Serve(tr, "node1"); err != nil {
		t.Fatal(err)
	}
	defer ssrv.Close()
	sc, err := Dial(tr, "node1", true, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	spage, _, err := sc.ScanString("k0000", "k0012", true, 100)
	if err != nil {
		t.Fatal(err)
	}
	wantS := slices.Clone(spage)
	if _, _, err := sc.ScanString("k1000", "k1012", true, 100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spage, wantS) || len(spage) != 6 {
		t.Fatalf("string page changed under the next RPC: %v, was %v", spage, wantS)
	}
}

// TestClientSplitPhase: Start puts the request on the wire and returns;
// requests started on two clients are both being served before either is
// finished, a Finish result views the client's buffer until the next Start,
// and Start/Finish out of turn is an error, not a mis-paired answer.
func TestClientSplitPhase(t *testing.T) {
	st := serve.New([]uint64{10, 20, 30}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	_, tr := startServer(t, st, Options{})
	a, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := StartLookupBatch(a, []uint64{5, 25, 35}); err != nil {
		t.Fatal(err)
	}
	if err := StartContainsBatch(b, []uint64{20, 21}); err != nil {
		t.Fatal(err)
	}
	if err := StartInsert(a, []uint64{1}); err != errSequence {
		t.Fatalf("second Start on a busy client: %v, want errSequence", err)
	}
	bs, err := b.FinishContainsBatch()
	if err != nil || !slices.Equal(bs, []bool{true, false}) {
		t.Fatalf("contains = %v, %v", bs, err)
	}
	pos, n, err := a.FinishLookupBatch()
	if err != nil || n != 3 || !slices.Equal(pos, []int{0, 2, 3}) {
		t.Fatalf("lookup = %v, len %d, %v", pos, n, err)
	}
	if _, err := a.FinishCountRange(); err != errSequence {
		t.Fatalf("Finish with nothing started: %v, want errSequence", err)
	}
	if err := StartCountRange(a, uint64(10), 30, true); err != nil {
		t.Fatal(err)
	}
	if n, err := a.FinishCountRange(); err != nil || n != 2 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if err := StartLookupBatch(a, []string{"x"}); err != errMode {
		t.Fatalf("string Start on a uint64 client: %v, want errMode", err)
	}
	// An answer of the wrong length is a protocol violation, not data.
	if err := StartContainsBatch(a, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	a.sent = 2
	if _, err := a.FinishContainsBatch(); err != errWire {
		t.Fatalf("3 answers for 2 probes: %v, want errWire", err)
	}
}
