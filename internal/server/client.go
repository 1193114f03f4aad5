package server

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"learnedindex/internal/frame"
	"learnedindex/internal/repl"
)

// RemoteError is a store-level failure relayed over a healthy connection
// (for example a durable insert refused by a read-only follower). The
// connection remains usable; retrying the same request will fail the same
// way, so callers should not treat it like a transport fault.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "server: remote: " + e.Msg }

// Status is the server's replication/status snapshot (the Status RPC).
type Status struct {
	// Follower is true when the served store replays a primary rather
	// than accepting writes.
	Follower bool
	// Connected, AppliedSeq, PrimaryDurableSeq, LagFrames, and MaxEpoch
	// mirror repl.FollowerStatus; all zero on a primary.
	Connected         bool
	AppliedSeq        uint64
	PrimaryDurableSeq uint64
	LagFrames         uint64
	MaxEpoch          uint64
	// Len is the store's visible key count at the time of the request.
	Len int
}

// ClientOptions tunes a Client. The zero value is ready to use.
type ClientOptions struct {
	// Timeout bounds each RPC from its start to the end of its finish
	// (default 30s), enforced — like every deadline on this transport
	// seam — by a watchdog that closes the connection.
	Timeout time.Duration
}

// Key is the wire's key-type set: a session is in uint64 or string mode
// (fixed by the handshake), and every keyed request exists in both.
type Key interface{ uint64 | string }

// Client is one wire connection to a Server. It is NOT safe for concurrent
// use, and it carries at most one request at a time: every RPC is
// split-phase — a Start function writes the request and returns, the
// matching Finish method reads the one response — so a caller holding
// clients to several servers can start on all of them before it waits on
// any (the router does; it keeps a pool per node). The blocking methods
// (LookupBatch, Scan, ...) are Start then Finish.
//
// Ownership: the client decodes every response into buffers it reuses.
// Slices returned by a Finish method view those buffers and are valid only
// until the next Start on the same client — copy out (or consume) before
// starting again or handing the client to someone else. The blocking
// methods return copies the caller owns. Close releases the connection and
// the client's watchdog timer; a client dropped without it is never freed.
type Client struct {
	c        repl.Conn
	strMode  bool
	follower bool
	timeout  time.Duration
	wd       watchdog // ClientOptions.Timeout, from each start to its finish

	in      *frame.Reader
	out     *frame.Writer
	resp    wmsg
	pending bool // a request is on the wire and its response unread
	sent    int  // keys in the pending request: the answer must match
}

var (
	errMode     = errors.New("server: method does not match the client's key mode")
	errSequence = errors.New("server: Start and Finish must alternate on a client")
)

// Dial connects to a server at addr over t and performs the handshake.
// strMode must match the served store's key mode; a mismatch is a handshake
// error, not a latent panic.
func Dial(t repl.Transport, addr string, strMode bool, opt ClientOptions) (*Client, error) {
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	conn, err := t.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		c:       conn,
		strMode: strMode,
		timeout: opt.Timeout,
		in:      frame.NewReader(conn),
		out:     frame.NewWriter(conn),
	}
	c.wd.start(c.timeout, func() { conn.Close() })
	err = c.start(&wmsg{kind: msgHello, strMode: strMode})
	if err == nil {
		err = c.finish(msgServerHello)
	}
	if err == nil && c.resp.strMode != strMode {
		err = fmt.Errorf("server: handshake key-mode mismatch")
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	c.follower = c.resp.follower
	return c, nil
}

// Follower reports whether the remote store is a replication follower
// (read-only over this protocol), as learned at the handshake.
func (c *Client) Follower() bool { return c.follower }

// Close severs the connection. Safe to call twice.
func (c *Client) Close() error {
	c.wd.stop()
	return c.c.Close()
}

// start writes req as one message and returns without waiting for the
// response; the client timeout runs from here to the end of finish (a
// watchdog close, not a deadline). An error means the connection is broken
// and the caller should Close.
func (c *Client) start(req *wmsg) error {
	if c.pending {
		return errSequence
	}
	c.wd.arm(monoNow(), c.timeout)
	if err := c.out.Send(appendWmsg(c.out.Buf(), req)); err != nil {
		c.wd.disarm()
		return err
	}
	c.pending = true
	return nil
}

// finish reads the response to the started request into c.resp. A msgErr
// response surfaces as *RemoteError with the connection still usable; any
// other failure means the connection is broken and the caller should Close.
func (c *Client) finish(wantKind byte) error {
	if !c.pending {
		return errSequence
	}
	c.pending = false
	err := recvWmsg(c.in, c.strMode, &c.resp)
	c.wd.disarm()
	switch {
	case err != nil:
		return err
	case c.resp.kind == msgErr:
		return &RemoteError{Msg: c.resp.errMsg}
	case c.resp.kind != wantKind:
		return errWire
	}
	return nil
}

// startKeys starts a request whose payload is a key set. keys is only read,
// and only until startKeys returns.
func startKeys[K Key](c *Client, kind byte, keys []K) error {
	req := wmsg{kind: kind}
	switch k := any(keys).(type) {
	case []uint64:
		req.keys = k
	case []string:
		req.strs, req.strMode = k, true
	}
	if req.strMode != c.strMode {
		return errMode
	}
	err := c.start(&req)
	if err == nil {
		c.sent = len(keys)
	}
	return err
}

// StartLookupBatch starts a LookupBatch for probes; FinishLookupBatch
// collects the answer.
func StartLookupBatch[K Key](c *Client, probes []K) error {
	return startKeys(c, msgLookupBatch, probes)
}

// FinishLookupBatch returns the position of each started probe, in probe
// order, and the store's visible length at the same instant (the router
// turns per-node positions into global ones with it). pos views the
// client's buffer: see Client.
func (c *Client) FinishLookupBatch() (pos []int, storeLen int, err error) {
	if err := c.finish(msgPositions); err != nil {
		return nil, 0, err
	}
	if len(c.resp.pos) != c.sent {
		return nil, 0, errWire
	}
	return c.resp.pos, int(c.resp.storeLen), nil
}

// StartContainsBatch starts a ContainsBatch for probes.
func StartContainsBatch[K Key](c *Client, probes []K) error {
	return startKeys(c, msgContainsBatch, probes)
}

// FinishContainsBatch returns Contains for each started probe in probe
// order. The result views the client's buffer: see Client.
func (c *Client) FinishContainsBatch() ([]bool, error) {
	if err := c.finish(msgBools); err != nil {
		return nil, err
	}
	if len(c.resp.bools) != c.sent {
		return nil, errWire
	}
	return c.resp.bools, nil
}

// StartInsert starts a durable insert of keys.
func StartInsert[K Key](c *Client, keys []K) error { return startKeys(c, msgInsert, keys) }

// FinishInsert returns nil once the started keys are fsync-durable on the
// server.
func (c *Client) FinishInsert() error { return c.finish(msgOK) }

// startRange starts a Scan (limit > 0 keys per page) or a CountRange over
// [lo, hi), or [lo, ∞) when bounded is false.
func startRange[K Key](c *Client, kind byte, lo, hi K, bounded bool, limit int) error {
	req := wmsg{kind: kind, bounded: bounded, limit: uint64(limit)}
	switch lo := any(lo).(type) {
	case uint64:
		req.lo, req.hi = lo, any(hi).(uint64)
	case string:
		req.loS, req.hiS, req.strMode = lo, any(hi).(string), true
	}
	if req.strMode != c.strMode {
		return errMode
	}
	return c.start(&req)
}

// StartCountRange starts a CountRange over [lo, hi) (or [lo, ∞) when
// bounded is false).
func StartCountRange[K Key](c *Client, lo, hi K, bounded bool) error {
	return startRange(c, msgCountRange, lo, hi, bounded, 0)
}

// FinishCountRange returns the started range's exact key count.
func (c *Client) FinishCountRange() (int, error) {
	if err := c.finish(msgCount); err != nil {
		return 0, err
	}
	return int(c.resp.count), nil
}

func lookupBatch[K Key](c *Client, probes []K) ([]int, int, error) {
	if err := StartLookupBatch(c, probes); err != nil {
		return nil, 0, err
	}
	pos, storeLen, err := c.FinishLookupBatch()
	return slices.Clone(pos), storeLen, err
}

func containsBatch[K Key](c *Client, probes []K) ([]bool, error) {
	if err := StartContainsBatch(c, probes); err != nil {
		return nil, err
	}
	bs, err := c.FinishContainsBatch()
	return slices.Clone(bs), err
}

func insert[K Key](c *Client, keys []K) error {
	if err := StartInsert(c, keys); err != nil {
		return err
	}
	return c.FinishInsert()
}

func countRange[K Key](c *Client, lo, hi K, bounded bool) (int, error) {
	if err := StartCountRange(c, lo, hi, bounded); err != nil {
		return 0, err
	}
	return c.FinishCountRange()
}

// ScanPage is Scan for either key mode; keys is a copy the caller owns.
func ScanPage[K Key](c *Client, lo, hi K, bounded bool, limit int) (keys []K, more bool, err error) {
	if err := startRange(c, msgScan, lo, hi, bounded, limit); err != nil {
		return nil, false, err
	}
	if err := c.finish(msgKeys); err != nil {
		return nil, false, err
	}
	switch dst := any(&keys).(type) {
	case *[]uint64:
		*dst = slices.Clone(c.resp.keys)
	case *[]string:
		*dst = slices.Clone(c.resp.strs)
	}
	return keys, c.resp.more, nil
}

// LookupBatch answers Lookup for every probe in probe order, plus the
// store's visible length at the same instant.
func (c *Client) LookupBatch(probes []uint64) (pos []int, storeLen int, err error) {
	return lookupBatch(c, probes)
}

// LookupBatchString is LookupBatch for a string-keyed store.
func (c *Client) LookupBatchString(probes []string) (pos []int, storeLen int, err error) {
	return lookupBatch(c, probes)
}

// ContainsBatch answers Contains for every probe in probe order.
func (c *Client) ContainsBatch(probes []uint64) ([]bool, error) { return containsBatch(c, probes) }

// ContainsBatchString is ContainsBatch for a string-keyed store.
func (c *Client) ContainsBatchString(probes []string) ([]bool, error) {
	return containsBatch(c, probes)
}

// Scan returns one page of up to limit keys from [lo, hi) in ascending
// order (hi ignored when bounded is false: scan to the end), and whether
// more keys exist past the page. Resume by calling again with lo set to
// the successor of the last key.
func (c *Client) Scan(lo, hi uint64, bounded bool, limit int) (keys []uint64, more bool, err error) {
	return ScanPage(c, lo, hi, bounded, limit)
}

// ScanString is Scan for a string-keyed store.
func (c *Client) ScanString(lo, hi string, bounded bool, limit int) (keys []string, more bool, err error) {
	return ScanPage(c, lo, hi, bounded, limit)
}

// CountRange returns the exact number of keys in [lo, hi) (or [lo, ∞) when
// bounded is false).
func (c *Client) CountRange(lo, hi uint64, bounded bool) (int, error) {
	return countRange(c, lo, hi, bounded)
}

// CountRangeString is CountRange for a string-keyed store.
func (c *Client) CountRangeString(lo, hi string, bounded bool) (int, error) {
	return countRange(c, lo, hi, bounded)
}

// Insert durably inserts keys via the store's group-commit write path: when
// it returns nil the keys are fsync-durable on the server. Duplicate keys
// are no-ops (set semantics), which is what makes retry-after-timeout safe.
func (c *Client) Insert(keys []uint64) error { return insert(c, keys) }

// InsertString is Insert for a string-keyed store.
func (c *Client) InsertString(keys []string) error { return insert(c, keys) }

// StatusRPC fetches the server's replication status and visible length.
func (c *Client) StatusRPC() (Status, error) {
	err := c.start(&wmsg{kind: msgStatus, strMode: c.strMode})
	if err == nil {
		err = c.finish(msgStatusInfo)
	}
	if err != nil {
		return Status{}, err
	}
	resp := &c.resp
	return Status{
		Follower:          resp.follower,
		Connected:         resp.connected,
		AppliedSeq:        resp.applied,
		PrimaryDurableSeq: resp.durable,
		LagFrames:         resp.lag,
		MaxEpoch:          resp.epoch,
		Len:               int(resp.storeLen),
	}, nil
}
