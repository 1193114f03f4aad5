package repl

import (
	"fmt"
	"sync"
	"time"

	"learnedindex/internal/frame"
	"learnedindex/internal/obs"
	"learnedindex/internal/storage"
)

// PrimaryOptions tunes the shipping side.
type PrimaryOptions struct {
	// Epoch is the primary's fencing term, assigned by the operator (or an
	// external coordinator — this package does no leader election). It must
	// be >= 1 and strictly greater than any epoch the followers have seen:
	// followers reject a primary whose epoch is below their high-water mark,
	// and a restarted primary process MUST be given a higher epoch (its
	// frame sequence restarts, so followers have to re-snapshot — the epoch
	// change is what tells them to).
	Epoch uint64

	// RingFrames bounds the in-memory frame ring the shipper serves from.
	// When a slow or dead follower falls off the ring's tail the primary
	// evicts anyway — commits NEVER block on replication — and the follower
	// catches up by snapshot on its next attempt. Default 4096.
	RingFrames int

	// HeartbeatEvery is the idle-channel heartbeat interval (also the lag
	// and RTT sampling rate). Default 200ms.
	HeartbeatEvery time.Duration

	// ReadTimeout is the per-connection silence watchdog: a follower that
	// sends nothing (no acks, no fence) for this long is presumed gone and
	// its connection closed. Default max(1s, 5×HeartbeatEvery).
	ReadTimeout time.Duration

	// SnapChunkKeys is the snapshot transfer chunk size. Default 32768.
	SnapChunkKeys int
}

func (o PrimaryOptions) withDefaults() PrimaryOptions {
	if o.RingFrames <= 0 {
		o.RingFrames = 4096
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 200 * time.Millisecond
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = max(time.Second, 5*o.HeartbeatEvery)
	}
	if o.SnapChunkKeys <= 0 {
		o.SnapChunkKeys = 32768
	}
	return o
}

// Primary ships the engine's durable WAL frame stream to followers. It
// installs itself as the engine's ReplSink, keeps a bounded ring of durable
// frames, and serves any number of follower connections: each gets the
// frames from its acked horizon forward, or a snapshot when it is too far
// behind (or from an older epoch). Replication is strictly asynchronous —
// the engine's commit path never waits on a follower, lag is observed, not
// blocked on.
type Primary struct {
	eng     *storage.Engine
	strMode bool
	opts    PrimaryOptions

	// mu guards the ring and connection set; cond wakes shippers when
	// frames arrive, a heartbeat is due, or the primary closes. The engine
	// sink runs under the ENGINE's write mutex and takes mu — so nothing
	// holding mu may ever call into the engine (lock order: eng.mu → mu).
	mu        sync.Mutex
	cond      *sync.Cond
	ring      []storage.ReplFrame // contiguous seqs; ring[0].Seq is the floor
	ringBytes int
	durable   uint64 // highest durable frame seq seen from the sink
	deposed   bool
	closed    bool
	conns     map[*pconn]struct{}
	nonce     uint64

	ln Listener
	wg sync.WaitGroup
	m  primaryMetrics
}

// pconn is the per-follower connection state.
type pconn struct {
	c      Conn
	acked  uint64 // guarded by Primary.mu
	nonce  uint64 // outstanding heartbeat nonce (one in flight)
	sentAt time.Time
}

type primaryMetrics struct {
	framesShipped *obs.Counter
	keysShipped   *obs.Counter
	bytesShipped  *obs.Counter
	snapshots     *obs.Counter
	heartbeats    *obs.Counter
	fenced        *obs.Counter
	followers     *obs.Gauge
	epoch         *obs.Gauge
	deposed       *obs.Gauge
	lagFrames     *obs.Gauge
	lagBytes      *obs.Gauge
	rttNs         *obs.Histogram
}

func newPrimaryMetrics(reg *obs.Registry) primaryMetrics {
	return primaryMetrics{
		framesShipped: reg.Counter("lix_repl_frames_shipped_total"),
		keysShipped:   reg.Counter("lix_repl_keys_shipped_total"),
		bytesShipped:  reg.Counter("lix_repl_bytes_shipped_total"),
		snapshots:     reg.Counter("lix_repl_snapshots_shipped_total"),
		heartbeats:    reg.Counter("lix_repl_heartbeats_total"),
		fenced:        reg.Counter("lix_repl_fenced_total"),
		followers:     reg.Gauge("lix_repl_followers"),
		epoch:         reg.Gauge("lix_repl_epoch"),
		deposed:       reg.Gauge("lix_repl_deposed"),
		lagFrames:     reg.Gauge("lix_repl_lag_frames"),
		lagBytes:      reg.Gauge("lix_repl_lag_bytes"),
		rttNs:         reg.Histogram("lix_repl_heartbeat_rtt_ns"),
	}
}

// NewPrimary attaches a shipper to eng at the given epoch and installs the
// engine sink. Call Serve to start accepting followers; Close detaches.
// For a gapless stream create the primary immediately after storage.Open,
// before the first write (see storage.SetReplSink).
func NewPrimary(eng *storage.Engine, opts PrimaryOptions) (*Primary, error) {
	opts = opts.withDefaults()
	if opts.Epoch == 0 {
		return nil, fmt.Errorf("repl: primary epoch must be >= 1 (0 is the followers' pre-contact floor)")
	}
	p := &Primary{
		eng:     eng,
		strMode: eng.StringKeys(),
		opts:    opts,
		conns:   make(map[*pconn]struct{}),
		m:       newPrimaryMetrics(eng.Registry()),
	}
	p.cond = sync.NewCond(&p.mu)
	p.m.epoch.Set(int64(opts.Epoch))
	p.durable = eng.ReplDurableSeq()
	eng.SetReplSink(p.sink)

	// Heartbeat ticker: wakes every shipper so idle channels carry a
	// heartbeat (lag/RTT sampling) even when no frames flow.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.opts.HeartbeatEvery)
		defer t.Stop()
		for {
			<-t.C
			p.mu.Lock()
			done := p.closed
			p.mu.Unlock()
			if done {
				return
			}
			p.cond.Broadcast()
		}
	}()
	return p, nil
}

// sink is the engine's ReplSink: runs under eng.mu right after the fsync
// that made frames durable. It only appends to the ring and wakes shippers
// — never blocks, never calls the engine.
func (p *Primary) sink(frames []storage.ReplFrame) {
	p.mu.Lock()
	for _, f := range frames {
		p.ring = append(p.ring, f)
		p.ringBytes += frameBytes(f)
		p.durable = f.Seq
	}
	for len(p.ring) > p.opts.RingFrames {
		p.ringBytes -= frameBytes(p.ring[0])
		p.ring = p.ring[1:]
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// frameBytes approximates a frame's wire payload size for lag-bytes
// accounting (9 bytes per uint64 upper bound; string length + prefix).
func frameBytes(f storage.ReplFrame) int {
	n := 9 * len(f.Keys)
	for _, s := range f.Strs {
		n += len(s) + 5
	}
	return n
}

// Serve binds addr on t and accepts followers until Close. Non-blocking.
func (p *Primary) Serve(t Transport, addr string) error {
	ln, err := t.Listen(addr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("repl: primary closed")
	}
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.handleConn(c)
			}()
		}
	}()
	return nil
}

// Addr returns the bound listen address ("" before Serve).
func (p *Primary) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr()
}

// Deposed reports whether any follower has fenced this primary (it saw a
// higher epoch). A deposed primary stops serving followers; its engine
// keeps running single-node.
func (p *Primary) Deposed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deposed
}

func (p *Primary) setDeposed() {
	p.mu.Lock()
	was := p.deposed
	p.deposed = true
	p.mu.Unlock()
	if !was {
		p.m.deposed.Set(1)
		p.m.fenced.Inc()
	}
	p.cond.Broadcast()
}

// Close stops accepting, severs every follower, detaches the engine sink,
// and waits for the connection goroutines to drain.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	var cs []Conn
	for pc := range p.conns {
		cs = append(cs, pc.c)
	}
	p.mu.Unlock()
	p.eng.SetReplSink(nil)
	if ln != nil {
		ln.Close()
	}
	for _, c := range cs {
		c.Close()
	}
	p.cond.Broadcast()
	p.wg.Wait()
	return nil
}

// handleConn runs one follower session: handshake, then a reader goroutine
// consuming acks while this goroutine ships snapshot/frames/heartbeats.
// The shipper is the connection's only writer after the handshake, and the
// reader that took the hello reads the acks: bytes that arrived with the
// hello belong to the ack stream.
func (p *Primary) handleConn(c Conn) {
	defer c.Close()
	in, out := frame.NewReader(c), frame.NewWriter(c)

	// Silence watchdog: any read progress pushes it out; expiry severs the
	// connection, which unblocks both goroutines. Deadline-free liveness so
	// every Transport implementation behaves the same.
	wd := time.AfterFunc(p.opts.ReadTimeout, func() { c.Close() })
	defer wd.Stop()

	var hello msg
	if err := recvMsg(in, p.strMode, &hello); err != nil || hello.kind != msgHello {
		return
	}
	wd.Reset(p.opts.ReadTimeout)

	p.mu.Lock()
	refused := p.closed || p.deposed
	durable := p.durable
	p.mu.Unlock()
	if refused {
		return
	}

	reply := msg{kind: msgPrimaryHello, strMode: p.strMode, epoch: p.opts.Epoch, seq: durable}
	if err := writeMsg(out, &reply); err != nil {
		return
	}
	if hello.strMode != p.strMode {
		// Mode mismatch is operator error; the hello reply told the
		// follower our mode, let it report the misconfiguration.
		return
	}
	if hello.epoch > p.opts.Epoch {
		// The follower has seen a newer primary: we are deposed. Its
		// explicit fence message lands on the reader below for accounting,
		// but do not wait for it.
		p.setDeposed()
		return
	}

	pc := &pconn{c: c}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[pc] = struct{}{}
	p.mu.Unlock()
	p.m.followers.Add(1)
	defer func() {
		p.mu.Lock()
		delete(p.conns, pc)
		lagF, lagB := p.maxLagLocked()
		p.mu.Unlock()
		p.m.lagFrames.Set(int64(lagF))
		p.m.lagBytes.Set(int64(lagB))
		p.m.followers.Add(-1)
	}()

	dead := make(chan struct{})
	go p.readAcks(c, in, pc, wd, dead)

	// Resume from the follower's acked horizon when this epoch's ring can
	// serve it; anything else (older epoch, ahead of our stream — i.e. a
	// different stream, including the follower's explicit needSnapSeq
	// "I have no position" sentinel — or fallen off the ring) takes the
	// snapshot path.
	cursor := uint64(0)
	if hello.epoch == p.opts.Epoch && hello.seq <= durable {
		cursor = hello.seq + 1
	}
	p.ship(out, pc, cursor, dead)
}

// readAcks consumes the follower's ack/fence stream. Closing dead wakes the
// shipper; any read error severs the connection.
func (p *Primary) readAcks(c Conn, in *frame.Reader, pc *pconn, wd *time.Timer, dead chan struct{}) {
	defer close(dead)
	defer c.Close()
	var m msg
	for {
		if err := recvMsg(in, p.strMode, &m); err != nil {
			p.cond.Broadcast()
			return
		}
		wd.Reset(p.opts.ReadTimeout)
		switch m.kind {
		case msgAck:
			p.mu.Lock()
			if m.seq > pc.acked {
				pc.acked = m.seq
			}
			lagF, lagB := p.maxLagLocked()
			var rtt time.Duration
			if m.nonce != 0 && m.nonce == pc.nonce {
				rtt = time.Since(pc.sentAt)
				pc.nonce = 0
			}
			p.mu.Unlock()
			p.m.lagFrames.Set(int64(lagF))
			p.m.lagBytes.Set(int64(lagB))
			if rtt > 0 {
				p.m.rttNs.ObserveDuration(rtt)
			}
		case msgFenced:
			p.setDeposed()
			return
		default:
			// A follower speaking anything else is broken; sever.
			return
		}
	}
}

// maxLagLocked reports the worst lag across the live connection set, so
// the global gauges track the slowest follower instead of flapping to
// whichever one acked last.
func (p *Primary) maxLagLocked() (frames, bytes uint64) {
	for pc := range p.conns {
		f, b := p.lagLocked(pc)
		frames = max(frames, f)
		bytes = max(bytes, b)
	}
	return frames, bytes
}

// lagLocked approximates pc's lag from the ring: frames past its ack, and
// their payload bytes (bytes saturate at the ring — beyond it the follower
// is in snapshot territory and the frame ring no longer measures it).
func (p *Primary) lagLocked(pc *pconn) (frames, bytes uint64) {
	if pc.acked >= p.durable {
		return 0, 0
	}
	frames = p.durable - pc.acked
	for i := len(p.ring) - 1; i >= 0 && p.ring[i].Seq > pc.acked; i-- {
		bytes += uint64(frameBytes(p.ring[i]))
	}
	return frames, bytes
}

// ship is the per-follower send loop: snapshot when the cursor cannot be
// served from the ring, frames when it can, heartbeats when idle.
func (p *Primary) ship(out *frame.Writer, pc *pconn, cursor uint64, dead chan struct{}) {
	var frames []storage.ReplFrame
	lastSend := time.Now()
	for {
		var needSnap bool
		p.mu.Lock()
		for {
			if p.closed || p.deposed {
				p.mu.Unlock()
				return
			}
			select {
			case <-dead:
				p.mu.Unlock()
				return
			default:
			}
			// The cursor is servable from the ring iff the ring still holds
			// it; a cursor below the ring floor (evicted) or from no stream
			// at all (0) means snapshot. An empty ring with durable history
			// behind the cursor is the evicted case too.
			ringLo := p.durable + 1
			if len(p.ring) > 0 {
				ringLo = p.ring[0].Seq
			}
			needSnap = cursor == 0 || cursor < ringLo
			frames = frames[:0]
			if !needSnap && len(p.ring) > 0 && cursor <= p.durable {
				idx := int(cursor - p.ring[0].Seq)
				frames = append(frames, p.ring[idx:]...)
			}
			hbDue := time.Since(lastSend) >= p.opts.HeartbeatEvery
			if needSnap || len(frames) > 0 || hbDue {
				break
			}
			p.cond.Wait()
		}
		durable := p.durable
		var hbNonce uint64
		if len(frames) == 0 && !needSnap {
			p.nonce++
			hbNonce = p.nonce
			pc.nonce = hbNonce
			pc.sentAt = time.Now()
		}
		p.mu.Unlock()

		switch {
		case needSnap:
			snapSeq, err := p.sendSnapshot(out)
			if err != nil {
				return
			}
			cursor = snapSeq + 1
		case len(frames) > 0:
			for _, f := range frames {
				fm := msg{kind: msgFrame, strMode: p.strMode, seq: f.Seq, keys: f.Keys, strs: f.Strs}
				if err := writeMsg(out, &fm); err != nil {
					return
				}
				p.m.framesShipped.Inc()
				p.m.keysShipped.Add(int64(len(f.Keys) + len(f.Strs)))
				p.m.bytesShipped.Add(int64(frameBytes(f)))
				cursor = f.Seq + 1
			}
		default: // heartbeat
			hb := msg{kind: msgHeartbeat, epoch: p.opts.Epoch, seq: durable, nonce: hbNonce}
			if err := writeMsg(out, &hb); err != nil {
				return
			}
			p.m.heartbeats.Inc()
		}
		lastSend = time.Now()
	}
}

// sendSnapshot streams a loss-free image of the engine's durable key set:
// snapBegin(seq, count), the keys in chunks, snapEnd(seq). Returns the
// sequence the image covers. Runs WITHOUT p.mu held — ReplSnapshot takes
// the engine mutex and the sink re-enters p.mu under it.
func (p *Primary) sendSnapshot(out *frame.Writer) (uint64, error) {
	p.m.snapshots.Inc()
	var seq uint64
	var keys []uint64
	var strs []string
	var total int
	if p.strMode {
		seq, strs = p.eng.ReplSnapshotStrings()
		total = len(strs)
	} else {
		seq, keys = p.eng.ReplSnapshot()
		total = len(keys)
	}
	begin := msg{kind: msgSnapBegin, seq: seq, count: uint64(total)}
	if err := writeMsg(out, &begin); err != nil {
		return 0, err
	}
	for lo := 0; lo < total; lo += p.opts.SnapChunkKeys {
		hi := min(lo+p.opts.SnapChunkKeys, total)
		chunk := msg{kind: msgSnapChunk, strMode: p.strMode}
		if p.strMode {
			chunk.strs = strs[lo:hi]
		} else {
			chunk.keys = keys[lo:hi]
		}
		if err := writeMsg(out, &chunk); err != nil {
			return 0, err
		}
		p.m.keysShipped.Add(int64(hi - lo))
	}
	end := msg{kind: msgSnapEnd, seq: seq}
	if err := writeMsg(out, &end); err != nil {
		return 0, err
	}
	return seq, nil
}
