// Package router is the client half of the network serving plane: a
// range-partitioned view over several lix-server nodes. It owns a key→node
// range map (fence keys), buckets
// each probe batch by owner node without sorting it (each server sorts only
// its own share), scatters the per-node sub-batches over the wire — every
// request is written before the first answer is awaited, all from the
// calling goroutine — and gathers the answers straight back into probe
// order. Range reads prune nodes whose fences cannot intersect the range
// (the data-skipping idea applied at the partition level), and cross-node
// scans merge per-node pages through internal/scan's loser tree.
//
// Reads can optionally be served by replication followers (PR 9) with a
// bounded staleness: a follower is eligible only while a fresh Status RPC
// shows it connected and at most MaxFollowerLag frames behind its primary.
//
// Every RPC the router issues is idempotent — reads trivially, durable
// inserts by set semantics — so transport faults are retried with backoff
// against a fresh connection. Store-level errors (server.RemoteError) are
// deterministic and surface immediately.
package router

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex/internal/repl"
	"learnedindex/internal/search"
	"learnedindex/internal/server"
)

// Node describes one partition: the primary server address plus optional
// follower addresses eligible for bounded-staleness reads.
type Node struct {
	Addr      string
	Followers []string
}

// Options tunes a Router. Transport and the fence set for the router's key
// mode are the load-bearing fields; everything else has defaults.
type Options struct {
	// Transport carries every connection (default repl.TCP). Tests pass
	// the in-memory or fault-injecting transport.
	Transport repl.Transport
	// StringKeys fixes the router's key mode, which must match every
	// node's store mode (the handshake enforces it per connection).
	StringKeys bool
	// Fences are the len(nodes)-1 ascending split keys of a uint64
	// router: node i owns [Fences[i-1], Fences[i]), with the first node
	// open below and the last open above.
	Fences []uint64
	// FencesStr are the split keys of a string router.
	FencesStr []string
	// RetryAttempts is how many times a single RPC is tried against
	// fresh connections before the error surfaces (default 8).
	RetryAttempts int
	// RetryBackoff is the first retry delay; it doubles per attempt and
	// is capped at 250ms (default 2ms).
	RetryBackoff time.Duration
	// ClientTimeout bounds each RPC end to end (server.ClientOptions).
	ClientTimeout time.Duration
	// ReadFollowers lets read RPCs hit follower endpoints whose cached
	// status is fresh, connected, and within MaxFollowerLag frames of
	// the primary. Writes always go to the primary.
	ReadFollowers bool
	// MaxFollowerLag is the largest LagFrames a follower may report and
	// still serve reads (default 0: only fully caught-up followers).
	MaxFollowerLag uint64
	// StatusRefresh is how long a follower's status check stays fresh
	// (default 250ms) — the staleness bound on the eligibility decision,
	// on top of the lag bound itself.
	StatusRefresh time.Duration
	// ScanPageKeys is the page size of cross-node scans (default 4096).
	ScanPageKeys int
}

func (o Options) withDefaults() Options {
	if o.Transport == nil {
		o.Transport = repl.TCP
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 8
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.StatusRefresh <= 0 {
		o.StatusRefresh = 250 * time.Millisecond
	}
	if o.ScanPageKeys <= 0 {
		o.ScanPageKeys = 4096
	}
	if o.ScanPageKeys > 1<<16 {
		o.ScanPageKeys = 1 << 16
	}
	return o
}

// Stats is a point-in-time snapshot of the router's own counters — the
// client-side mirror of the server's lix_server_* series.
type Stats struct {
	// RPCs counts every RPC attempt put on a connection: the first try of
	// each node RPC and every retry of it.
	RPCs int64
	// Retries counts RPC attempts after the first.
	Retries int64
	// Batches counts batch operations (lookup/contains/insert/count/scan).
	Batches int64
	// FanoutBatches counts batches that touched two or more nodes.
	FanoutBatches int64
	// PrunedNodes counts node contacts skipped because the node's fence
	// range could not intersect the operation.
	PrunedNodes int64
	// FollowerReads counts read RPC groups routed to a follower endpoint.
	FollowerReads int64
	// NodeRPCs is RPCs broken down by node index.
	NodeRPCs []int64
}

// Router is a range-partitioned client over several servers. Safe for
// concurrent use: every operation acquires connections from per-endpoint
// pools.
type Router struct {
	opt   Options
	nodes []*node

	rpcs, retries, batches, fanout atomic.Int64
	pruned, followerReads          atomic.Int64
	nodeRPCs                       []atomic.Int64
}

type node struct {
	primary   *endpoint
	followers []*endpoint
}

// poolSize caps the idle pooled connections kept per endpoint.
const poolSize = 8

// endpoint is one dialable address plus its idle-connection pool and (for
// followers) the cached status that gates read eligibility.
type endpoint struct {
	rt   *Router
	addr string
	idx  int // owning node index, for per-node stats

	mu       sync.Mutex
	idle     []*server.Client
	status   server.Status
	statusAt time.Time
	statusOK bool
}

// New builds a router over nodes. The fence set for the configured key
// mode must hold exactly len(nodes)-1 strictly ascending keys.
func New(nodes []Node, opt Options) (*Router, error) {
	opt = opt.withDefaults()
	if len(nodes) == 0 {
		return nil, errors.New("router: no nodes")
	}
	if opt.StringKeys {
		if len(opt.FencesStr) != len(nodes)-1 {
			return nil, fmt.Errorf("router: %d nodes need %d string fences, have %d", len(nodes), len(nodes)-1, len(opt.FencesStr))
		}
		if !ascending(opt.FencesStr) {
			return nil, errors.New("router: string fences not strictly ascending")
		}
	} else {
		if len(opt.Fences) != len(nodes)-1 {
			return nil, fmt.Errorf("router: %d nodes need %d fences, have %d", len(nodes), len(nodes)-1, len(opt.Fences))
		}
		if !ascending(opt.Fences) {
			return nil, errors.New("router: fences not strictly ascending")
		}
	}
	r := &Router{opt: opt, nodeRPCs: make([]atomic.Int64, len(nodes))}
	for i, n := range nodes {
		nd := &node{primary: &endpoint{rt: r, addr: n.Addr, idx: i}}
		for _, f := range n.Followers {
			nd.followers = append(nd.followers, &endpoint{rt: r, addr: f, idx: i})
		}
		r.nodes = append(r.nodes, nd)
	}
	return r, nil
}

func ascending[K cmp.Ordered](s []K) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Close drops every pooled connection. In-flight operations on other
// goroutines fail their current attempt and redial (which may succeed);
// Close is for teardown, not fencing.
func (r *Router) Close() error {
	for _, n := range r.nodes {
		n.primary.drain()
		for _, f := range n.followers {
			f.drain()
		}
	}
	return nil
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	s := Stats{
		RPCs:          r.rpcs.Load(),
		Retries:       r.retries.Load(),
		Batches:       r.batches.Load(),
		FanoutBatches: r.fanout.Load(),
		PrunedNodes:   r.pruned.Load(),
		FollowerReads: r.followerReads.Load(),
		NodeRPCs:      make([]int64, len(r.nodeRPCs)),
	}
	for i := range r.nodeRPCs {
		s.NodeRPCs[i] = r.nodeRPCs[i].Load()
	}
	return s
}

func (e *endpoint) drain() {
	e.mu.Lock()
	idle := e.idle
	e.idle = nil
	e.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

func (e *endpoint) acquire() (*server.Client, error) {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()
	return server.Dial(e.rt.opt.Transport, e.addr, e.rt.opt.StringKeys,
		server.ClientOptions{Timeout: e.rt.opt.ClientTimeout})
}

func (e *endpoint) release(c *server.Client) {
	e.mu.Lock()
	if len(e.idle) < poolSize {
		e.idle = append(e.idle, c)
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	c.Close()
}

// do runs one RPC against the endpoint, retrying transport faults with
// backoff against a fresh connection each time. Safe because every router
// RPC is idempotent. A store-level RemoteError is deterministic — it
// surfaces immediately with the connection kept.
func (e *endpoint) do(fn func(*server.Client) error) error { return e.retry(0, nil, fn) }

// retry is do from the given attempt number on: scatter makes attempt 0
// itself, split-phase, and hands only a failed node here with the error
// that failed it.
func (e *endpoint) retry(attempt int, lastErr error, fn func(*server.Client) error) error {
	backoff := e.rt.opt.RetryBackoff
	for ; attempt < e.rt.opt.RetryAttempts; attempt++ {
		if attempt > 0 {
			e.rt.retries.Add(1)
			time.Sleep(backoff)
			if backoff < 250*time.Millisecond {
				backoff *= 2
			}
		}
		c, err := e.acquire()
		if err != nil {
			lastErr = err
			continue
		}
		e.countRPC()
		if err = e.settle(c, fn(c)); err == nil || isRemote(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("router: %s: %w", e.addr, lastErr)
}

func (e *endpoint) countRPC() {
	e.rt.rpcs.Add(1)
	e.rt.nodeRPCs[e.idx].Add(1)
}

// settle disposes of c after an RPC that returned err: back to the pool
// when the connection is still healthy, closed after a transport fault.
func (e *endpoint) settle(c *server.Client, err error) error {
	if err == nil || isRemote(err) {
		e.release(c)
	} else {
		c.Close()
	}
	return err
}

func isRemote(err error) bool {
	var re *server.RemoteError
	return errors.As(err, &re)
}

// readEndpoint picks where a read RPC for node n goes: a lag-bounded
// follower when allowed and available, else the primary.
func (r *Router) readEndpoint(n *node) *endpoint {
	if !r.opt.ReadFollowers {
		return n.primary
	}
	for _, f := range n.followers {
		if f.freshFollower() {
			r.followerReads.Add(1)
			return f
		}
	}
	return n.primary
}

// freshFollower reports whether the endpoint's status — refreshed over the
// wire when older than StatusRefresh — shows a connected follower within
// MaxFollowerLag frames of its primary.
func (e *endpoint) freshFollower() bool {
	e.mu.Lock()
	fresh := e.statusOK && time.Since(e.statusAt) < e.rt.opt.StatusRefresh
	st := e.status
	e.mu.Unlock()
	if !fresh {
		var got server.Status
		err := e.do(func(c *server.Client) error {
			var err error
			got, err = c.StatusRPC()
			return err
		})
		e.mu.Lock()
		e.statusOK = err == nil
		e.statusAt = time.Now()
		if err == nil {
			e.status = got
		}
		st = e.status
		fresh = e.statusOK
		e.mu.Unlock()
		if !fresh {
			return false
		}
	}
	return st.Follower && st.Connected && st.LagFrames <= e.rt.opt.MaxFollowerLag
}

// ---- batch splitting: bucket by fence, scatter, gather ----

// buckets is a batch grouped by owner node — a stable counting scatter, so
// nothing is sorted here: each server sorts only its own share. Node i's
// keys are keys[start[i]:start[i+1]] in batch order, and idx maps each
// back to its slot in the caller's batch.
type buckets[K cmp.Ordered] struct {
	keys  []K
	idx   []int32
	start []int
}

func bucket[K cmp.Ordered](batch, fences []K) buckets[K] {
	n := len(batch)
	ints := make([]int32, 2*n)
	own, idx := ints[:n], ints[n:]
	// Counts land two slots up, so that after the prefix sum start[o+1] is
	// where node o's run begins; the scatter advances it to where the run
	// ends, which is where node o+1's begins: start[o] is then node o's.
	start := make([]int, len(fences)+3)
	for i, k := range batch {
		o := search.UpperBound(fences, k)
		own[i] = int32(o)
		start[o+2]++
	}
	for o := 2; o < len(start); o++ {
		start[o] += start[o-1]
	}
	keys := make([]K, n)
	for i, k := range batch {
		at := start[own[i]+1]
		start[own[i]+1]++
		keys[at], idx[at] = k, int32(i)
	}
	return buckets[K]{keys, idx, start[:len(fences)+2]}
}

func (b *buckets[K]) node(i int) []K      { return b.keys[b.start[i]:b.start[i+1]] }
func (b *buckets[K]) nonEmpty(i int) bool { return b.start[i+1] > b.start[i] }

// used counts the nodes that own at least one key of the batch.
func (b *buckets[K]) used() (n int) {
	for i := range b.start[1:] {
		if b.nonEmpty(i) {
			n++
		}
	}
	return n
}

// clip intersects [lo, hi) — [lo, ∞) when bounded is false — with node i's
// fence range; ok reports a non-empty intersection.
func clip[K cmp.Ordered](lo, hi K, bounded bool, fences []K, i int) (clo, chi K, cbounded, ok bool) {
	if i > 0 && fences[i-1] > lo {
		lo = fences[i-1]
	}
	if i < len(fences) && (!bounded || fences[i] < hi) {
		hi, bounded = fences[i], true
	}
	return lo, hi, bounded, !bounded || lo < hi
}

// scatter runs one operation as a split-phase RPC on every involved node,
// entirely on the calling goroutine: start(i, c) puts node i's request on
// connection c, and only when every node's request is on the wire does
// finish(i, c) collect the answers, in node order — the nodes work
// concurrently, the caller spawns nothing. finish runs at most once to
// success per node. A node whose attempt fails on a transport fault is
// retried alone, with backoff, through endpoint.retry; a RemoteError is
// final. The involved count and the joined per-node errors are returned.
func (r *Router) scatter(read bool, involved func(i int) bool, start, finish func(i int, c *server.Client) error) (int, error) {
	type call struct {
		ep  *endpoint      // nil: node not involved
		c   *server.Client // nil: the request was not started, because of err
		err error
	}
	calls := make([]call, len(r.nodes))
	contacted := 0
	for i, nd := range r.nodes {
		if !involved(i) {
			continue
		}
		contacted++
		cl := &calls[i]
		cl.ep = nd.primary
		if read {
			cl.ep = r.readEndpoint(nd)
		}
		c, err := cl.ep.acquire()
		if err == nil {
			cl.ep.countRPC()
			if err = start(i, c); err != nil {
				c.Close()
				c = nil
			}
		}
		cl.c, cl.err = c, err
	}
	var errs []error
	for i := range calls {
		cl := &calls[i]
		if cl.ep == nil {
			continue
		}
		err := cl.err
		if cl.c != nil {
			err = cl.ep.settle(cl.c, finish(i, cl.c))
		}
		if err != nil && !isRemote(err) {
			err = cl.ep.retry(1, err, func(c *server.Client) error {
				if err := start(i, c); err != nil {
					return err
				}
				return finish(i, c)
			})
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return contacted, errors.Join(errs...)
}

// tally bumps the batch counters: every operation is a batch, one touching
// ≥2 nodes is a fan-out, and untouched nodes count as pruned when pruned is
// true (range reads skip them; lookups must still fetch every node's
// length).
func (r *Router) tally(contacted int, pruned bool) {
	r.batches.Add(1)
	if contacted >= 2 {
		r.fanout.Add(1)
	}
	if pruned && len(r.nodes) > contacted {
		r.pruned.Add(int64(len(r.nodes) - contacted))
	}
}

// ---- operations, once for both key modes ----

func lookupBatch[K server.Key](r *Router, probes, fences []K) ([]int, error) {
	b := bucket(probes, fences)
	out := make([]int, len(probes))
	off := 0
	_, err := r.scatter(true,
		func(int) bool { return true },
		func(i int, c *server.Client) error { return server.StartLookupBatch(c, b.node(i)) },
		func(i int, c *server.Client) error {
			pos, n, err := c.FinishLookupBatch()
			if err != nil {
				return err
			}
			for j, p := range pos {
				out[b.idx[b.start[i]+j]] = p + off
			}
			off += n
			return nil
		})
	r.tally(b.used(), false)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func containsBatch[K server.Key](r *Router, probes, fences []K) ([]bool, error) {
	b := bucket(probes, fences)
	out := make([]bool, len(probes))
	contacted, err := r.scatter(true, b.nonEmpty,
		func(i int, c *server.Client) error { return server.StartContainsBatch(c, b.node(i)) },
		func(i int, c *server.Client) error {
			bs, err := c.FinishContainsBatch()
			for j, v := range bs {
				out[b.idx[b.start[i]+j]] = v
			}
			return err
		})
	r.tally(contacted, true)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func insertDurable[K server.Key](r *Router, keys, fences []K) error {
	b := bucket(keys, fences)
	contacted, err := r.scatter(false, b.nonEmpty,
		func(i int, c *server.Client) error { return server.StartInsert(c, b.node(i)) },
		func(i int, c *server.Client) error { return c.FinishInsert() })
	r.tally(contacted, true)
	return err
}

func countRange[K server.Key](r *Router, lo, hi K, bounded bool, fences []K) (int, error) {
	if bounded && hi <= lo {
		r.batches.Add(1)
		return 0, nil
	}
	total := 0
	contacted, err := r.scatter(true,
		func(i int) bool {
			_, _, _, ok := clip(lo, hi, bounded, fences, i)
			return ok
		},
		func(i int, c *server.Client) error {
			clo, chi, cbounded, _ := clip(lo, hi, bounded, fences, i)
			return server.StartCountRange(c, clo, chi, cbounded)
		},
		func(i int, c *server.Client) error {
			n, err := c.FinishCountRange()
			total += n
			return err
		})
	r.tally(contacted, true)
	if err != nil {
		return 0, err
	}
	return total, nil
}

func (r *Router) mustU64() {
	if r.opt.StringKeys {
		panic("router: uint64 operation on a string-keyed router")
	}
}

func (r *Router) mustStr() {
	if !r.opt.StringKeys {
		panic("router: string operation on a uint64-keyed router")
	}
}

// LookupBatch answers the global lower-bound position of every probe, in
// probe order, over the partitioned keyspace: each node reports positions
// local to its partition plus its length, and the router adds the prefix
// sum of preceding node lengths — the cross-node version of how a store
// sums its segments' lengths. Every node is contacted (a probe-less node
// still contributes its length to the offsets).
func (r *Router) LookupBatch(probes []uint64) ([]int, error) {
	r.mustU64()
	return lookupBatch(r, probes, r.opt.Fences)
}

// LookupBatchString is LookupBatch for a string-keyed router.
func (r *Router) LookupBatchString(probes []string) ([]int, error) {
	r.mustStr()
	return lookupBatch(r, probes, r.opt.FencesStr)
}

// ContainsBatch answers Contains for every probe in probe order. Only the
// nodes owning at least one probe are contacted.
func (r *Router) ContainsBatch(probes []uint64) ([]bool, error) {
	r.mustU64()
	return containsBatch(r, probes, r.opt.Fences)
}

// ContainsBatchString is ContainsBatch for a string-keyed router.
func (r *Router) ContainsBatchString(probes []string) ([]bool, error) {
	r.mustStr()
	return containsBatch(r, probes, r.opt.FencesStr)
}

// InsertDurable routes each key to its owner node's group-commit durable
// write path; nil means every key is fsync-durable on its node. Duplicate
// keys are no-ops (set semantics), so a partially failed call is safe to
// retry verbatim.
func (r *Router) InsertDurable(keys ...uint64) error {
	r.mustU64()
	return insertDurable(r, keys, r.opt.Fences)
}

// InsertDurableString is InsertDurable for a string-keyed router.
func (r *Router) InsertDurableString(keys ...string) error {
	r.mustStr()
	return insertDurable(r, keys, r.opt.FencesStr)
}

// CountRange returns the exact number of keys in [lo, hi) by summing
// per-node counts over the range clipped to each node's fences; nodes
// whose range cannot intersect are never contacted.
func (r *Router) CountRange(lo, hi uint64) (int, error) {
	r.mustU64()
	return countRange(r, lo, hi, true, r.opt.Fences)
}

// CountFrom counts every key >= lo, math.MaxUint64 included.
func (r *Router) CountFrom(lo uint64) (int, error) {
	r.mustU64()
	return countRange(r, lo, 0, false, r.opt.Fences)
}

// CountRangeString is CountRange for a string-keyed router.
func (r *Router) CountRangeString(lo, hi string) (int, error) {
	r.mustStr()
	return countRange(r, lo, hi, true, r.opt.FencesStr)
}

// CountFromString counts every key >= lo.
func (r *Router) CountFromString(lo string) (int, error) {
	r.mustStr()
	return countRange(r, lo, "", false, r.opt.FencesStr)
}
