package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"learnedindex/internal/binenc"
	"learnedindex/internal/frame"
	"learnedindex/internal/obs"
	"learnedindex/internal/storage"
	"learnedindex/internal/vfs"
)

// FollowerOptions tunes the replay side.
type FollowerOptions struct {
	// Addr is the primary's address in the transport's namespace.
	Addr string
	// Transport defaults to TCP.
	Transport Transport

	// ReconnectBase/ReconnectMax bound the exponential redial backoff
	// (base doubles per consecutive failure up to max, each delay jittered
	// to half..full so a fleet of followers does not reconnect in phase).
	// Defaults 50ms / 2s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// JitterSeed seeds the backoff jitter (0 = time-seeded).
	JitterSeed int64

	// HeartbeatTimeout severs a connection on which nothing arrives and
	// nothing applies for this long; the redial loop takes over. Must
	// comfortably exceed the primary's HeartbeatEvery. Default 2s.
	HeartbeatTimeout time.Duration

	// FlushEvery flushes the engine after this many applied keys, turning
	// replayed-durable keys into served ones at a bounded cadence.
	// Default 8192.
	FlushEvery int

	// QueueDepth bounds the decoded-frame apply queue. When the applier
	// (fsync-bound) falls behind, the reader stops draining the socket and
	// the transport's flow control pushes back on the primary — bounded
	// replay backpressure instead of unbounded buffering. Default 64.
	QueueDepth int
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Transport == nil {
		o.Transport = TCP
	}
	if o.ReconnectBase <= 0 {
		o.ReconnectBase = 50 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 2 * time.Second
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 8192
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	return o
}

// FollowerStatus is a point-in-time view of the replay plane.
type FollowerStatus struct {
	Connected         bool
	AppliedSeq        uint64 // frames durably applied to the local engine
	PrimaryDurableSeq uint64 // primary's horizon at the last heartbeat
	LagFrames         uint64 // PrimaryDurableSeq - AppliedSeq (0 floor)
	MaxEpoch          uint64 // fencing floor: highest primary epoch seen
	Reconnects        int64  // sessions established after the first
}

// Follower replays a primary's durable frame stream into its own engine.
// Every applied frame is group-committed (durable locally) before it is
// acked, so a follower ack means exactly what a Commit return means on the
// primary: the keys survive a crash of the follower. A disconnected
// follower keeps serving reads from its engine and redials with jittered
// exponential backoff; a primary presenting an epoch below the follower's
// high-water mark is fenced (told it is deposed) and refused.
type Follower struct {
	eng     *storage.Engine
	strMode bool
	opts    FollowerOptions

	mu       sync.Mutex
	addr     string
	maxEpoch uint64
	// applied is the durably applied frame horizon in maxEpoch's stream;
	// it is meaningful only while baselined is true. An epoch raise marks a
	// NEW stream (a restarted primary's frame sequence restarts at 1), so
	// the handshake zeroes applied and clears baselined; only a completed
	// snapshot under the new epoch re-baselines. While un-baselined the
	// hello advertises needSnapSeq so the primary can never resume a stale
	// horizon past frames this follower has not seen.
	applied        uint64
	baselined      bool
	primaryDurable uint64
	connected      bool
	sessions       int64
	pendingFlush   int  // applied keys since the last engine flush
	conn           Conn // live session's conn, severed by Close/Retarget
	closed         bool

	rng  *rand.Rand // redial jitter; owned by the run loop goroutine
	quit chan struct{}
	wg   sync.WaitGroup
	m    followerMetrics
}

type followerMetrics struct {
	framesApplied *obs.Counter
	keysApplied   *obs.Counter
	snapshots     *obs.Counter
	reconnects    *obs.Counter
	fencedStale   *obs.Counter
	connected     *obs.Gauge
	appliedSeq    *obs.Gauge
	lagFrames     *obs.Gauge
	maxEpoch      *obs.Gauge
}

func newFollowerMetrics(reg *obs.Registry) followerMetrics {
	return followerMetrics{
		framesApplied: reg.Counter("lix_repl_follower_frames_applied_total"),
		keysApplied:   reg.Counter("lix_repl_follower_keys_applied_total"),
		snapshots:     reg.Counter("lix_repl_follower_snapshots_total"),
		reconnects:    reg.Counter("lix_repl_follower_reconnects_total"),
		fencedStale:   reg.Counter("lix_repl_follower_fenced_stale_total"),
		connected:     reg.Gauge("lix_repl_follower_connected"),
		appliedSeq:    reg.Gauge("lix_repl_follower_applied_seq"),
		lagFrames:     reg.Gauge("lix_repl_follower_lag_frames"),
		maxEpoch:      reg.Gauge("lix_repl_follower_max_epoch"),
	}
}

// errStalePrimary marks a session ended by fencing a deposed primary.
var errStalePrimary = errors.New("repl: fenced a stale primary")

// needSnapSeq is the hello sequence a follower sends when it has no valid
// position in the primary's stream (fresh, or its baseline belongs to an
// older epoch). It exceeds any real durable horizon, so the primary's
// resume check routes the session to the snapshot path.
const needSnapSeq = ^uint64(0)

// NewFollower attaches a replay loop to eng (which must be open in the
// same key mode as the primary). Durable replication state (fencing floor,
// applied horizon) persists in eng.Dir()/repl-state across restarts; a
// missing or stale state file is always safe — the follower re-applies or
// re-snapshots, and replay deduplicates. Call Start to begin.
func NewFollower(eng *storage.Engine, opts FollowerOptions) (*Follower, error) {
	opts = opts.withDefaults()
	if opts.Addr == "" {
		return nil, fmt.Errorf("repl: follower needs a primary address")
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	f := &Follower{
		eng:     eng,
		strMode: eng.StringKeys(),
		opts:    opts,
		addr:    opts.Addr,
		rng:     rand.New(rand.NewSource(seed)),
		quit:    make(chan struct{}),
		m:       newFollowerMetrics(eng.Registry()),
	}
	f.loadState()
	f.m.appliedSeq.Set(int64(f.applied))
	f.m.maxEpoch.Set(int64(f.maxEpoch))
	return f, nil
}

// Start launches the dial/replay loop.
func (f *Follower) Start() {
	f.wg.Add(1)
	go f.run()
}

// Close stops the replay loop, severs the live session, persists state,
// and waits for the goroutines. The engine stays open — the caller owns it.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	c := f.conn
	f.mu.Unlock()
	close(f.quit)
	if c != nil {
		c.Close()
	}
	f.wg.Wait()
	f.saveState()
	return nil
}

// Retarget points the follower at a new primary address: the live session
// is severed and the redial loop connects to addr (fencing rules apply —
// a stale primary at addr is refused).
func (f *Follower) Retarget(addr string) {
	f.mu.Lock()
	f.addr = addr
	c := f.conn
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Status returns a point-in-time view.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FollowerStatus{
		Connected:         f.connected,
		AppliedSeq:        f.applied,
		PrimaryDurableSeq: f.primaryDurable,
		MaxEpoch:          f.maxEpoch,
		Reconnects:        max(f.sessions-1, 0),
	}
	if s.PrimaryDurableSeq > s.AppliedSeq {
		s.LagFrames = s.PrimaryDurableSeq - s.AppliedSeq
	}
	return s
}

// run is the dial loop: jittered exponential backoff between failures,
// reset on an established session.
func (f *Follower) run() {
	defer f.wg.Done()
	attempt := 0
	for {
		select {
		case <-f.quit:
			return
		default:
		}
		f.mu.Lock()
		addr := f.addr
		f.mu.Unlock()
		c, err := f.opts.Transport.Dial(addr)
		if err == nil {
			err = f.session(c)
			c.Close()
		}
		f.setConnected(false, nil)
		if err == nil || errors.Is(err, errSessionEstablished) {
			attempt = 0
		} else {
			attempt++
		}
		// Jittered exponential backoff: half..full of the capped delay.
		d := f.opts.ReconnectBase << min(attempt, 16)
		if d > f.opts.ReconnectMax || d <= 0 {
			d = f.opts.ReconnectMax
		}
		d = d/2 + time.Duration(f.rng.Int63n(int64(d/2)+1))
		select {
		case <-time.After(d):
		case <-f.quit:
			return
		}
	}
}

// errSessionEstablished wraps session errors that happened AFTER a
// successful handshake, so the backoff resets (the primary was there; the
// link just broke).
var errSessionEstablished = errors.New("repl: session established")

// session speaks one connection: handshake (with fencing), then a reader
// feeding a bounded apply queue. Returns when the connection dies.
func (f *Follower) session(c Conn) error {
	in, out := frame.NewReader(c), frame.NewWriter(c)
	var wmu sync.Mutex // the applier's acks and the reader's share out

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.conn = c
	helloSeq := f.applied
	if !f.baselined {
		helloSeq = needSnapSeq // no valid position: force the snapshot path
	}
	hello := msg{kind: msgHello, strMode: f.strMode, epoch: f.maxEpoch, seq: helloSeq}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()

	if err := writeMsg(out, &hello); err != nil {
		return err
	}
	// Watchdog: reset on every arrival AND every completed apply — a slow
	// fsync is progress, silence is not. Expiry severs the connection.
	wd := time.AfterFunc(f.opts.HeartbeatTimeout, func() { c.Close() })
	defer wd.Stop()

	var ph msg
	if err := recvMsg(in, f.strMode, &ph); err != nil {
		return err
	}
	wd.Reset(f.opts.HeartbeatTimeout)
	if ph.kind != msgPrimaryHello {
		return errWire
	}
	if ph.strMode != f.strMode {
		return fmt.Errorf("repl: primary key mode mismatch (primary strMode=%v)", ph.strMode)
	}
	f.mu.Lock()
	if ph.epoch < f.maxEpoch {
		fence := msg{kind: msgFenced, epoch: f.maxEpoch}
		f.mu.Unlock()
		f.m.fencedStale.Inc()
		writeMsg(out, &fence) // no applier yet: this goroutine is out's only writer
		return errStalePrimary
	}
	epochRaised := ph.epoch > f.maxEpoch
	f.maxEpoch = ph.epoch
	if epochRaised {
		// A new epoch is a new stream: a restarted primary's frame sequence
		// restarts at 1, so the old stream's horizon is not just stale but
		// poisonous — advertising it under the new epoch would let the
		// primary resume past frames this follower never saw. Zero it and
		// drop the baseline; only this epoch's snapshot re-establishes one.
		f.applied = 0
		f.baselined = false
	}
	f.primaryDurable = ph.seq
	f.sessions++
	reconnect := f.sessions > 1
	f.mu.Unlock()
	f.m.maxEpoch.Set(int64(ph.epoch))
	if epochRaised {
		f.m.appliedSeq.Set(0)
		f.saveState()
	}
	if reconnect {
		f.m.reconnects.Inc()
	}
	f.setConnected(true, nil)

	// Applier: drains the bounded queue, group-commits every frame into the
	// local engine, acks, and flushes on cadence. On failure it severs the
	// connection and drains the queue so the reader never deadlocks.
	ch := make(chan msg, f.opts.QueueDepth)
	var applyWg sync.WaitGroup
	var applyErr error
	applyWg.Add(1)
	go func() {
		defer applyWg.Done()
		for m := range ch {
			if applyErr != nil {
				continue // draining
			}
			if err := f.apply(&m, out, &wmu, wd); err != nil {
				applyErr = err
				c.Close()
			}
		}
	}()

	// Reader: validates stream order before enqueueing. expect is the next
	// frame sequence this connection owes us; 0 until the primary commits
	// to a position (first frame or snapshot end).
	err := func() error {
		var m msg
		expect := uint64(0)
		for {
			if rerr := recvMsg(in, f.strMode, &m); rerr != nil {
				return rerr
			}
			wd.Reset(f.opts.HeartbeatTimeout)
			switch m.kind {
			case msgHeartbeat:
				if m.epoch != f.MaxEpoch() {
					// A primary whose epoch moved mid-connection is not a
					// protocol we speak; sever and re-handshake.
					return errWire
				}
				f.mu.Lock()
				f.primaryDurable = m.seq
				applied := f.applied
				lag := uint64(0)
				if m.seq > applied {
					lag = m.seq - applied
				}
				f.mu.Unlock()
				f.m.lagFrames.Set(int64(lag))
				if err := f.ack(out, &wmu, applied, m.nonce); err != nil {
					return err
				}
			case msgFrame:
				if expect == 0 {
					expect = f.AppliedSeq() + 1
				}
				if m.seq < expect {
					continue // duplicate of an applied frame; ignore
				}
				if m.seq > expect {
					// Gap or reordering: the stream is no longer the WAL
					// order. Never apply out of order — resync instead.
					return errWire
				}
				expect++
				select {
				case ch <- m:
				case <-f.quit:
					return nil
				}
			case msgSnapBegin, msgSnapChunk, msgSnapEnd:
				if m.kind == msgSnapEnd {
					expect = m.seq + 1
				}
				select {
				case ch <- m:
				case <-f.quit:
					return nil
				}
			default:
				return errWire
			}
		}
	}()
	close(ch)
	applyWg.Wait()
	f.saveState()
	if applyErr != nil {
		return fmt.Errorf("%w: %w", errSessionEstablished, applyErr)
	}
	return fmt.Errorf("%w: %w", errSessionEstablished, err)
}

// apply executes one queued message against the local engine. Frames and
// snapshot chunks group-commit (durable before the ack leaves); snapEnd
// adopts the snapshot's sequence and acks it.
func (f *Follower) apply(m *msg, out *frame.Writer, wmu *sync.Mutex, wd *time.Timer) error {
	switch m.kind {
	case msgSnapBegin:
		f.m.snapshots.Inc()
		return nil
	case msgSnapChunk:
		if err := f.commitKeys(m); err != nil {
			return err
		}
		wd.Reset(f.opts.HeartbeatTimeout)
		// Progress ack: it moves no horizon (that happens at snapEnd) but it
		// is read progress on the primary, whose silence watchdog would
		// otherwise sever any snapshot whose transfer+apply outlasts its
		// ReadTimeout — a catch-up livelock for non-trivial datasets.
		return f.ack(out, wmu, f.AppliedSeq(), 0)
	case msgSnapEnd:
		// The image is durable; adopt its horizon EXACTLY (assignment, not
		// max — after an epoch raise the old stream's high-water mark must
		// not win against the new stream's position) and re-baseline.
		f.adoptApplied(m.seq)
		f.saveState()
		return f.ack(out, wmu, m.seq, 0)
	case msgFrame:
		if err := f.commitKeys(m); err != nil {
			return err
		}
		f.m.framesApplied.Inc()
		f.setApplied(m.seq)
		wd.Reset(f.opts.HeartbeatTimeout)
		return f.ack(out, wmu, m.seq, 0)
	}
	return nil
}

// commitKeys group-commits the message's keys and flushes on cadence.
func (f *Follower) commitKeys(m *msg) error {
	var n int
	var err error
	if f.strMode {
		n = len(m.strs)
		err = f.eng.CommitStringBatch(m.strs)
	} else {
		n = len(m.keys)
		err = f.eng.CommitBatch(m.keys)
	}
	if err != nil {
		return err
	}
	f.m.keysApplied.Add(int64(n))
	f.mu.Lock()
	f.pendingFlush += n
	doFlush := f.pendingFlush >= f.opts.FlushEvery
	if doFlush {
		f.pendingFlush = 0
	}
	f.mu.Unlock()
	if doFlush {
		if err := f.eng.Flush(); err != nil {
			return err
		}
		f.saveState()
	}
	return nil
}

func (f *Follower) ack(out *frame.Writer, wmu *sync.Mutex, seq, nonce uint64) error {
	ack := msg{kind: msgAck, seq: seq, nonce: nonce}
	wmu.Lock()
	defer wmu.Unlock()
	return writeMsg(out, &ack)
}

func (f *Follower) setApplied(seq uint64) {
	f.mu.Lock()
	if seq > f.applied {
		f.applied = seq
	}
	applied := f.applied
	f.mu.Unlock()
	f.m.appliedSeq.Set(int64(applied))
}

// adoptApplied pins the applied horizon to seq exactly and marks it a valid
// baseline in maxEpoch's stream — snapshot adoption, where setApplied's
// raise-only rule (right for in-order frames) would be wrong.
func (f *Follower) adoptApplied(seq uint64) {
	f.mu.Lock()
	f.applied = seq
	f.baselined = true
	f.mu.Unlock()
	f.m.appliedSeq.Set(int64(seq))
}

// AppliedSeq returns the durably applied frame horizon.
func (f *Follower) AppliedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// MaxEpoch returns the fencing floor (highest primary epoch seen).
func (f *Follower) MaxEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxEpoch
}

func (f *Follower) setConnected(up bool, _ error) {
	f.mu.Lock()
	f.connected = up
	f.mu.Unlock()
	if up {
		f.m.connected.Set(1)
	} else {
		f.m.connected.Set(0)
	}
}

// --- durable replication state -------------------------------------------
//
// repl-state pins the fencing floor and applied horizon across follower
// restarts: magic, uvarint maxEpoch, uvarint appliedSeq, one byte baselined
// (0/1 — whether appliedSeq is a valid position in maxEpoch's stream),
// crc32c (frame.Checksum) u32 LE. It lives beside the engine's files on the
// engine's filesystem (Engine.FS). Written atomically (temp + rename) and
// always AFTER the state it describes is durable in the engine, so a stale
// file only ever under-reports — the primary re-ships or re-snapshots, and
// replay deduplicates. A corrupt, missing, or older-format file degrades to
// zeros (un-baselined) for the same reason.

const replStateName = "repl-state"

var replStateMagic = []byte("LIXRPLST")

func (f *Follower) statePath() string {
	return filepath.Join(f.eng.Dir(), replStateName)
}

func (f *Follower) loadState() {
	data, err := f.eng.FS().ReadFile(f.statePath())
	if err != nil || len(data) < len(replStateMagic)+4 {
		return
	}
	if string(data[:len(replStateMagic)]) != string(replStateMagic) {
		return
	}
	body := data[:len(data)-4]
	if frame.Checksum(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return
	}
	r := binenc.NewReader(body[len(replStateMagic):])
	epoch := r.Uvarint()
	applied := r.Uvarint()
	baselined := r.Bool()
	if r.Err() != nil || r.Remaining() != 0 {
		return
	}
	f.maxEpoch, f.applied, f.baselined = epoch, applied, baselined
}

func (f *Follower) saveState() {
	f.mu.Lock()
	epoch, applied, baselined := f.maxEpoch, f.applied, f.baselined
	f.mu.Unlock()
	buf := append([]byte(nil), replStateMagic...)
	buf = binenc.AppendUvarint(buf, epoch)
	buf = binenc.AppendUvarint(buf, applied)
	buf = binenc.AppendBool(buf, baselined)
	buf = binary.LittleEndian.AppendUint32(buf, frame.Checksum(buf))
	// Best-effort: a lost state file only costs a re-snapshot, and the
	// engine's next open sweeps a temp a failure leaves behind.
	vfs.CommitFile(f.eng.FS(), f.statePath(), buf, nil)
}
