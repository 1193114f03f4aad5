package server

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex/internal/frame"
	"learnedindex/internal/obs"
	"learnedindex/internal/repl"
	"learnedindex/internal/scan"
	"learnedindex/internal/serve"
)

// Options tunes a Server. The zero value is ready to use.
type Options struct {
	// MaxInflight bounds the number of requests executing against the
	// store at once, across all connections (default 64). Excess requests
	// queue on their connection — backpressure, not rejection — so a
	// misbehaving client herd cannot turn the store into a thread pool.
	MaxInflight int
	// IdleTimeout is the per-connection read deadline: a connection that
	// sends no request for this long is closed (default 2m). Enforced by
	// a watchdog that closes the connection rather than by transport
	// deadlines, so TCP, the in-memory transport, and FaultNet all behave
	// identically (repl.Conn has no deadline surface by design). The
	// watchdog is one lazy timer per connection (see watchdog), not a
	// timer per request.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write the same way (default 30s):
	// a client that stops draining its socket loses the connection, not
	// the server a goroutine.
	WriteTimeout time.Duration
	// DrainTimeout is how long Close waits for in-flight requests to
	// finish and flush their responses before severing connections
	// (default 5s).
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// maxScanKeys clamps the page size of a Scan response regardless of the
// limit the client asked for, bounding per-request memory the way
// maxWireKeys bounds decode allocations.
const maxScanKeys = 1 << 16

// serverMetrics is the lix_server_* series, registered on the store's own
// registry so one scrape sees the store and its wire front end together.
type serverMetrics struct {
	conns   *obs.Gauge   // lix_server_conns: open connections
	accepts *obs.Counter // lix_server_accepts_total
	// requests is lix_server_requests_total by request kind; nil marks a
	// kind that is not a request.
	requests   [msgStatusInfo + 1]*obs.Counter
	errors     *obs.Counter // lix_server_errors_total: respErr sent
	wireErrors *obs.Counter // lix_server_wire_errors_total: corrupt/broken conns
	timeouts   *obs.Counter // lix_server_timeouts_total: watchdog closes
	keysIn     *obs.Counter // lix_server_keys_in_total
	keysOut    *obs.Counter // lix_server_keys_out_total
	reqNs      *obs.Histogram
}

var opNames = map[byte]string{
	msgLookupBatch:   "lookup_batch",
	msgContainsBatch: "contains_batch",
	msgScan:          "scan",
	msgCountRange:    "count_range",
	msgInsert:        "insert",
	msgStatus:        "status",
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		conns:      reg.Gauge("lix_server_conns"),
		accepts:    reg.Counter("lix_server_accepts_total"),
		errors:     reg.Counter("lix_server_errors_total"),
		wireErrors: reg.Counter("lix_server_wire_errors_total"),
		timeouts:   reg.Counter("lix_server_timeouts_total"),
		keysIn:     reg.Counter("lix_server_keys_in_total"),
		keysOut:    reg.Counter("lix_server_keys_out_total"),
		reqNs:      reg.Histogram("lix_server_request_ns"),
	}
	for kind, name := range opNames {
		m.requests[kind] = reg.Counter(obs.L("lix_server_requests_total", "op", name))
	}
	return m
}

// Server fronts one serve.Store with the wire protocol. Serve accepts
// connections until Close, which drains gracefully: the listener closes
// first, in-flight requests finish and flush their responses (bounded by
// DrainTimeout), then the remaining connections are severed.
type Server struct {
	st  *serve.Store
	opt Options
	m   serverMetrics

	inflight chan struct{}
	reqWG    sync.WaitGroup // in-flight request executions
	connWG   sync.WaitGroup // per-connection handler goroutines

	mu     sync.Mutex
	ln     repl.Listener
	conns  map[repl.Conn]struct{}
	closed atomic.Bool // set under mu; the request path reads it without
}

// NewServer wraps st; it does not listen until Serve.
func NewServer(st *serve.Store, opt Options) *Server {
	s := &Server{
		st:    st,
		opt:   opt.withDefaults(),
		conns: make(map[repl.Conn]struct{}),
		m:     newServerMetrics(st.Registry()),
	}
	s.inflight = make(chan struct{}, s.opt.MaxInflight)
	return s
}

// Serve binds addr on t and accepts connections in a background goroutine.
// The bound address (useful with ":0") is available via Addr.
func (s *Server) Serve(t repl.Transport, addr string) error {
	ln, err := t.Listen(addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.mu.Unlock()
	s.connWG.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listener address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln repl.Listener) {
	defer s.connWG.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.m.accepts.Inc()
		s.m.conns.Add(1)
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// Close stops accepting, waits up to DrainTimeout for in-flight requests
// to finish and flush, then severs every remaining connection. It does not
// close the store.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	s.closed.Store(true)
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Drain: requests already executing complete and their responses are
	// written before we cut the connections under them.
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.opt.DrainTimeout):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return nil
}

func (s *Server) dropConn(c repl.Conn) {
	c.Close()
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.m.conns.Add(-1)
	}
	s.mu.Unlock()
}

// handleConn runs the handshake and then the request/response loop. The
// connection's watchdog enforces IdleTimeout while waiting for a request
// and WriteTimeout while writing a response, both by closing the connection
// (never deadlines — see Options); a request executing against the store
// is not on any clock.
func (s *Server) handleConn(c repl.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(c)

	var wd watchdog
	wd.start(min(s.opt.IdleTimeout, s.opt.WriteTimeout), func() {
		s.m.timeouts.Inc()
		c.Close()
	})
	defer wd.stop()

	strMode := s.st.StringKeys()
	var req, resp wmsg
	in, out := frame.NewReader(c), frame.NewWriter(c)
	respond := func(now int64) bool {
		wd.arm(now, s.opt.WriteTimeout)
		err := out.Send(appendWmsg(out.Buf(), &resp))
		if err != nil {
			s.m.wireErrors.Inc()
		}
		return err == nil
	}

	// Handshake: the client leads with hello; a key-mode mismatch is
	// answered with an explicit error (the one respErr a client can get
	// before serverHello) so the operator sees "wrong mode", not EOF.
	wd.arm(monoNow(), s.opt.IdleTimeout)
	if err := recvWmsg(in, strMode, &req); err != nil || req.kind != msgHello {
		s.m.wireErrors.Inc()
		return
	}
	if req.strMode != strMode {
		resp = wmsg{kind: msgErr, errMsg: fmt.Sprintf("server: key mode mismatch: client strings=%v, store strings=%v", req.strMode, strMode)}
		respond(monoNow())
		return
	}
	resp = wmsg{kind: msgServerHello, strMode: strMode, follower: s.st.IsFollower()}
	if !respond(monoNow()) {
		return
	}
	handle := s.handler(strMode)

	for {
		wd.arm(monoNow(), s.opt.IdleTimeout)
		if err := recvWmsg(in, strMode, &req); err != nil {
			// A bare io.EOF means the client hung up on a frame boundary —
			// a normal disconnect, not a corrupt conn. Mid-frame EOF
			// surfaces as ErrUnexpectedEOF and still counts.
			if !errors.Is(err, io.EOF) {
				s.m.wireErrors.Inc()
			}
			return
		}
		wd.disarm()
		if s.closed.Load() {
			return
		}
		if int(req.kind) >= len(s.m.requests) || s.m.requests[req.kind] == nil {
			s.m.wireErrors.Inc()
			return // request kind unknown or a response kind: protocol abuse
		}
		s.m.requests[req.kind].Inc()

		// The semaphore bounds store work across all connections; the
		// reqWG makes Close wait for the response flush, not just the
		// store call.
		s.inflight <- struct{}{}
		s.reqWG.Add(1)
		start := monoNow()
		handle(&req, &resp)
		end := monoNow()
		s.m.reqNs.ObserveDuration(time.Duration(end - start))
		<-s.inflight
		okWrite := respond(end)
		s.reqWG.Done()
		if !okWrite {
			return
		}
	}
}

// keyMode is what request handling needs of one key mode: the store's
// typed methods, and the wmsg fields that carry a message's keys and range
// bounds.
type keyMode[K Key] struct {
	strMode       bool
	keys          func(m *wmsg) *[]K
	bounds        func(m *wmsg) (lo, hi K)
	lookupBatch   func(*serve.Store, []K) []int
	containsBatch func(*serve.Store, []K) []bool
	insertDurable func(*serve.Store, ...K) error
	countRange    func(st *serve.Store, lo, hi K) int
	countFrom     func(st *serve.Store, lo K) int
	scan          func(st *serve.Store, lo, hi K) *scan.Iterator[K]
	scanFrom      func(st *serve.Store, lo K) *scan.Iterator[K]
}

var uint64Mode = keyMode[uint64]{
	keys:          func(m *wmsg) *[]uint64 { return &m.keys },
	bounds:        func(m *wmsg) (uint64, uint64) { return m.lo, m.hi },
	lookupBatch:   (*serve.Store).LookupBatch,
	containsBatch: (*serve.Store).ContainsBatch,
	insertDurable: (*serve.Store).InsertDurable,
	countRange:    (*serve.Store).CountRange,
	countFrom:     (*serve.Store).CountFrom,
	scan:          (*serve.Store).Scan,
	scanFrom:      (*serve.Store).ScanFrom,
}

var stringMode = keyMode[string]{
	strMode:       true,
	keys:          func(m *wmsg) *[]string { return &m.strs },
	bounds:        func(m *wmsg) (string, string) { return m.loS, m.hiS },
	lookupBatch:   (*serve.Store).LookupBatchString,
	containsBatch: (*serve.Store).ContainsBatchString,
	insertDurable: (*serve.Store).InsertDurableString,
	countRange:    (*serve.Store).CountRangeString,
	countFrom:     (*serve.Store).CountFromString,
	scan:          (*serve.Store).ScanString,
	scanFrom:      (*serve.Store).ScanStringFrom,
}

// handler returns the request handler of a session in the given key mode.
func (s *Server) handler(strMode bool) func(req, resp *wmsg) {
	if strMode {
		return func(req, resp *wmsg) { handle(s, &stringMode, req, resp) }
	}
	return func(req, resp *wmsg) { handle(s, &uint64Mode, req, resp) }
}

// handle executes one request against the store and fills resp, reusing
// resp's slices. Store-level failures become respErr (connection stays
// healthy); only wire-level failures kill the connection.
func handle[K Key](s *Server, km *keyMode[K], req, resp *wmsg) {
	keys := *km.keys(req)
	s.m.keysIn.Add(int64(len(keys)))
	switch req.kind {
	case msgLookupBatch:
		resp.reset(msgPositions, km.strMode)
		resp.pos = km.lookupBatch(s.st, keys)
		resp.storeLen = uint64(s.st.Len())
		s.m.keysOut.Add(int64(len(resp.pos)))
	case msgContainsBatch:
		resp.reset(msgBools, km.strMode)
		resp.bools = km.containsBatch(s.st, keys)
		s.m.keysOut.Add(int64(len(resp.bools)))
	case msgScan:
		handleScan(s, km, req, resp)
	case msgCountRange:
		var n int
		if lo, hi := km.bounds(req); req.bounded {
			n = km.countRange(s.st, lo, hi)
		} else {
			n = km.countFrom(s.st, lo)
		}
		resp.reset(msgCount, km.strMode)
		resp.count = uint64(n)
	case msgInsert:
		if err := km.insertDurable(s.st, keys...); err != nil {
			s.m.errors.Inc()
			resp.reset(msgErr, km.strMode)
			resp.errMsg = err.Error()
			return
		}
		resp.reset(msgOK, km.strMode)
	case msgStatus:
		fs, isFollower := s.st.FollowerStatus()
		resp.reset(msgStatusInfo, km.strMode)
		resp.follower = isFollower
		resp.connected = fs.Connected
		resp.applied = fs.AppliedSeq
		resp.durable = fs.PrimaryDurableSeq
		resp.lag = fs.LagFrames
		resp.epoch = fs.MaxEpoch
		resp.storeLen = uint64(s.st.Len())
	default:
		s.m.errors.Inc()
		resp.reset(msgErr, km.strMode)
		resp.errMsg = "server: unhandled request kind"
	}
}

// handleScan answers one page of a range scan: up to limit keys from lo,
// plus a more flag when another key exists past the page (the server reads
// one key beyond the page to know, without losing it — the client resumes
// from successor(last key)).
func handleScan[K Key](s *Server, km *keyMode[K], req, resp *wmsg) {
	limit := int(req.limit)
	if limit <= 0 || limit > maxScanKeys {
		limit = maxScanKeys
	}
	resp.reset(msgKeys, km.strMode)
	var it *scan.Iterator[K]
	if lo, hi := km.bounds(req); req.bounded {
		it = km.scan(s.st, lo, hi)
	} else {
		it = km.scanFrom(s.st, lo)
	}
	page := *km.keys(resp)
	for it.Next() {
		if len(page) == limit {
			resp.more = true
			break
		}
		page = append(page, it.Key())
	}
	it.Close()
	*km.keys(resp) = page
	s.m.keysOut.Add(int64(len(page)))
}
