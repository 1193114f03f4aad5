package serve

// The in-memory serving plane, written once for both key modes. A Store's
// shards — their published snapshots, insert buffers and drain state — are
// one memPlane[K, S], and everything that builds and splits the initial
// keys, routes a key, buffers an insert, drains the shards on the merger's
// wake and at Flush, and captures a batch or a scan runs once over it. The
// key mode only chooses the memOps the plane carries: how a snapshot is
// trained and read, which batch kernel runs over the captured snapshots,
// which cursor streams one, and which typed engine method serves each call
// on a persistent store.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
	"learnedindex/internal/search"
	"learnedindex/internal/slicepool"
	"learnedindex/internal/storage"
)

// shard is one range partition. Its published snapshot S is immutable —
// a core.Plan over the shard's sorted keys, or a core.StringIndex, whose
// dictionary is the only place a string shard's keys live — and is
// replaced by pointer swap, so readers load it and never take a lock.
type shard[K cmp.Ordered, S any] struct {
	snap atomic.Pointer[S]
	// mergeMu serializes drains so at most one retrain per shard runs at a
	// time (the merger's sweep and a Flush may race to drain the same
	// shard). Different shards' drains run concurrently, one per drainer of
	// a drainWhere call.
	mergeMu sync.Mutex
	// mu protects buf, the unordered insert buffer, and draining.
	mu  sync.Mutex
	buf []K
	// draining holds the buffer a drain has taken but not yet published:
	// from the moment the drain detaches buf until the merged snapshot is
	// swapped in, the keys live here and nowhere readers can see — except
	// scans, which capture buf+draining before loading the snapshot, so a
	// key migrating through a drain is visible at every instant. The drain
	// never mutates the draining slice (it sorts a copy).
	draining []K
}

// full reports whether the shard's buffer has reached thresh.
func (sh *shard[K, S]) full(thresh int) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.buf) >= thresh
}

// memPlane is a Store's plane for keys of kind K: the split keys, the
// shards and the merger of an in-memory store. A persistent store's plane
// has no shard and no merger — it is the store's key mode, and its ops
// reach the engine's typed methods.
type memPlane[K cmp.Ordered, S any] struct {
	s      *Store
	ops    *memOps[K, S]
	bounds []K // len(shards)-1 split keys; shard i serves [bounds[i-1], bounds[i])
	shards []*shard[K, S]
	// wake is the merger's one-slot wake-up: an insert that fills its
	// shard's buffer sends without blocking, and a wake already queued
	// covers it, because the merger's sweep reads every buffer afresh.
	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
}

// The two planes a Store can hold.
type (
	u64Plane = memPlane[uint64, core.Plan]
	strPlane = memPlane[string, core.StringIndex]
)

// keyPlane is a memPlane with its key kind erased: what the mode-free
// Store methods ask of it.
type keyPlane interface {
	numShards() int
	len() int
	pending() int
	// shardState returns shard i's queue depth (buffered plus draining
	// keys) and its live plan.
	shardState(i int) (queued int, plan *core.Plan)
	flush()
	stop()
}

// planeOf returns s's plane as the K-keyed plane it must be: every typed
// entry point goes through it, so calling one of the other key mode's
// panics.
func planeOf[K cmp.Ordered, S any](s *Store) *memPlane[K, S] {
	p, ok := s.mem.(*memPlane[K, S])
	if !ok {
		mode := "uint64-keyed"
		if s.StringKeys() {
			mode = "string-keyed"
		}
		var k K
		panic(fmt.Sprintf("serve: %T call on a %s store", k, mode))
	}
	return p
}

func (s *Store) u64() *u64Plane { return planeOf[uint64, core.Plan](s) }
func (s *Store) str() *strPlane { return planeOf[string, core.StringIndex](s) }

// memOps is the key-kind seam of the plane: everything that differs
// between a uint64 store and a string store, and nothing else.
type memOps[K cmp.Ordered, S any] struct {
	strKeys bool

	// The snapshot. build trains one over sorted unique keys (workers 0
	// lets the trainer pick); keys returns its keys for a merge (a string
	// index materializes them); fence returns its first and last key, ok
	// false when it is empty.
	build    func(keys []K, cfg core.Config, workers int) *S
	keys     func(*S) []K
	size     func(*S) int
	lookup   func(*S, K) int
	contains func(*S, K) bool
	plan     func(*S) *core.Plan
	fence    func(*S) (lo, hi K, ok bool)
	// cursor points the scan cursor in slot c at a snapshot.
	cursor func(c *scan.Cursor[K], x *S)

	// The in-memory batch kernels: capture and kernel in one call, so the
	// capture's stack buffers never cross an indirect call (escape analysis
	// cannot see through one and would move them to the heap).
	memLookupBatch   func(p *memPlane[K, S], probes []K, out []int)
	memContainsBatch func(p *memPlane[K, S], probes []K, out []bool)

	// sampled is the 1-in-64 admission of a single-key lookup's metrics.
	sampled func(m *storeMetrics, key K) bool

	// The engine's typed methods, for a persistent store. engScan pins the
	// engine's snapshot of the range on st, points a cursor at every segment
	// whose fence overlaps it, and returns the snapshot's pending delta.
	engBulkLoad      func(*storage.Engine, []K) error
	engAppend        func(*storage.Engine, K) error
	engCommit        func(*storage.Engine, []K) error
	engLookup        func(*storage.Engine, K) int
	engContains      func(*storage.Engine, K) bool
	engLookupBatch   func(*storage.Engine, []K, []int)
	engContainsBatch func(*storage.Engine, []K, []bool)
	engCount         func(e *storage.Engine, lo, hi K, bounded bool) int
	engScan          func(st *scanState[K, S], e *storage.Engine, lo, hi K, bounded bool) []K

	// bufs recycles drained insert buffers: a drain hands its buffer back
	// after the merge copies the survivors out, so sustained ingest stops
	// re-growing a fresh buffer per merge cycle. scans recycles scan state.
	bufs  slicepool.Pool[K]
	scans sync.Pool
}

// stackShards and stackProbes size the buffers an in-memory batch read
// keeps on its own stack: up to this many shards and probes, the call's
// only allocation is its result.
const (
	stackShards = 16
	stackProbes = 64
)

var u64Ops = memOps[uint64, core.Plan]{
	build: func(keys []uint64, cfg core.Config, workers int) *core.Plan {
		if workers > 0 {
			return core.NewWithTrainWorkers(keys, cfg, workers).Plan()
		}
		return core.New(keys, cfg).Plan()
	},
	keys:     (*core.Plan).Keys,
	size:     (*core.Plan).Len,
	lookup:   (*core.Plan).Lookup,
	contains: (*core.Plan).Contains,
	plan:     func(p *core.Plan) *core.Plan { return p },
	fence: func(p *core.Plan) (uint64, uint64, bool) {
		ks := p.Keys()
		if len(ks) == 0 {
			return 0, 0, false
		}
		return ks[0], ks[len(ks)-1], true
	},
	cursor: func(c *scan.Cursor[uint64], p *core.Plan) { keysCursor(c, p.Keys(), p) },

	memLookupBatch: func(p *u64Plane, probes []uint64, out []int) {
		var pbuf [stackShards]*core.Plan
		var sbuf [stackProbes]int32
		plans, sel := p.captureBatch(pbuf[:0], sbuf[:0], probes)
		core.LookupBatch(plans, sel, probes, out)
		globalize(plans, sel, out, (*core.Plan).Len)
	},
	memContainsBatch: func(p *u64Plane, probes []uint64, out []bool) {
		var pbuf [stackShards]*core.Plan
		var sbuf [stackProbes]int32
		plans, sel := p.captureBatch(pbuf[:0], sbuf[:0], probes)
		core.ContainsBatch(plans, sel, probes, out)
	},

	sampled: func(_ *storeMetrics, key uint64) bool { return obs.SampleKey(key) },

	engBulkLoad:      (*storage.Engine).BulkLoad,
	engAppend:        func(e *storage.Engine, k uint64) error { return e.Append(k) },
	engCommit:        (*storage.Engine).CommitBatch,
	engLookup:        (*storage.Engine).Lookup,
	engContains:      (*storage.Engine).Contains,
	engLookupBatch:   (*storage.Engine).LookupBatch,
	engContainsBatch: (*storage.Engine).ContainsBatch,
	engCount:         (*storage.Engine).CountRange,
	engScan: func(st *scanState[uint64, core.Plan], e *storage.Engine, lo, hi uint64, bounded bool) []uint64 {
		sn := e.AcquireSnapshotRange(lo, hi, bounded)
		st.snap = sn
		for i := 0; i < sn.NumSegments(); i++ {
			if ks, pos := sn.SegmentKeys(i, lo, hi, bounded); ks != nil {
				keysCursor(st.slot(), ks, pos)
			}
		}
		return sn.Pending()
	},
}

var strOps = memOps[string, core.StringIndex]{
	strKeys: true,

	build: func(keys []string, cfg core.Config, workers int) *core.StringIndex {
		if workers > 0 {
			return core.NewStringIndexWorkers(keys, cfg, workers)
		}
		return core.NewStringIndex(keys, cfg)
	},
	keys:     func(si *core.StringIndex) []string { return si.Dict().AppendKeys(nil, 0, si.Len()) },
	size:     (*core.StringIndex).Len,
	lookup:   (*core.StringIndex).Lookup,
	contains: (*core.StringIndex).Contains,
	plan:     (*core.StringIndex).Plan,
	fence: func(si *core.StringIndex) (string, string, bool) {
		d := si.Dict()
		return d.Min(), d.Max(), d.Len() > 0
	},
	cursor: stringCursor,

	memLookupBatch: func(p *strPlane, probes []string, out []int) {
		var ibuf [stackShards]*core.StringIndex
		var sbuf [stackProbes]int32
		idx, sel := p.captureBatch(ibuf[:0], sbuf[:0], probes)
		core.LookupBatchStrings(idx, sel, probes, out)
		globalize(idx, sel, out, (*core.StringIndex).Len)
	},
	// A string shard answers membership by ranking the batch and testing
	// each answer against the key at that position of its dictionary.
	memContainsBatch: func(p *strPlane, probes []string, out []bool) {
		var ibuf [stackShards]*core.StringIndex
		var sbuf [stackProbes]int32
		var pbuf [stackProbes]int
		idx, sel := p.captureBatch(ibuf[:0], sbuf[:0], probes)
		pos := pbuf[:]
		if len(probes) > len(pos) {
			pos = make([]int, len(probes))
		}
		pos = pos[:len(probes)]
		core.LookupBatchStrings(idx, sel, probes, pos)
		for i, k := range probes {
			out[i] = idx[sel[i]].Dict().Equal(pos[i], k)
		}
	},

	// A string key has no cheap hash to slice, so its lookups are admitted
	// by the store's shared Sampler: an unsampled call pays one sharded
	// atomic add.
	sampled: func(m *storeMetrics, _ string) bool { return m.sampler.Tick() },

	engBulkLoad:      (*storage.Engine).BulkLoadStrings,
	engAppend:        func(e *storage.Engine, k string) error { return e.AppendString(k) },
	engCommit:        (*storage.Engine).CommitStringBatch,
	engLookup:        (*storage.Engine).LookupString,
	engContains:      (*storage.Engine).ContainsString,
	engLookupBatch:   (*storage.Engine).LookupBatchString,
	engContainsBatch: (*storage.Engine).ContainsBatchString,
	engCount:         (*storage.Engine).CountRangeStr,
	engScan: func(st *scanState[string, core.StringIndex], e *storage.Engine, lo, hi string, bounded bool) []string {
		sn := e.AcquireSnapshotRangeStr(lo, hi, bounded)
		st.snap = sn
		for i := 0; i < sn.NumSegments(); i++ {
			if si := sn.SegmentStrings(i, lo, hi, bounded); si != nil {
				stringCursor(st.slot(), si)
			}
		}
		return sn.PendingStrings()
	},
}

// newInMemory builds an in-memory store over keys (any order; duplicates
// are dropped): the sorted keys are split into opt.Shards contiguous
// ranges at evenly spaced split keys, and every shard trains its snapshot.
func newInMemory[K cmp.Ordered, S any](keys []K, ops *memOps[K, S], cfg core.Config, opt Options) (*Store, error) {
	nsh := opt.Shards
	if nsh <= 0 {
		nsh = 8
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)

	s := newStore(cfg, opt)
	p := &memPlane[K, S]{
		s:      s,
		ops:    ops,
		shards: make([]*shard[K, S], nsh),
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
	s.mem = p
	n := len(sorted)
	if n > 0 && nsh > 1 {
		p.bounds = make([]K, 0, nsh-1)
		for i := 1; i < nsh; i++ {
			p.bounds = append(p.bounds, sorted[i*n/nsh])
		}
	}
	lo := 0
	for i := range p.shards {
		hi := n
		if i < len(p.bounds) {
			at, _ := slices.BinarySearch(sorted[lo:], p.bounds[i])
			hi = lo + at
		}
		sh := &shard[K, S]{}
		// Initial shards train one at a time; the trainer's own worker
		// pool is the parallelism here.
		sh.snap.Store(ops.build(sorted[lo:hi:hi], cfg, 0))
		p.shards[i] = sh
		lo = hi
	}
	if err := s.initObs(obs.NewRegistry(), nsh, opt.MetricsAddr); err != nil {
		return nil, err
	}
	p.wg.Add(1)
	go p.merger()
	return s, nil
}

// insert buffers a key for its shard and wakes the merger once the buffer
// passes the threshold; on a persistent store it appends the key to the
// WAL (an error is sticky in the engine and surfaces on Sync/Flush/Close).
func (p *memPlane[K, S]) insert(key K) {
	s := p.s
	if s.repl.follower != nil {
		panic("serve: insert on a follower store (writes go to the primary)")
	}
	s.m.inserts.Inc()
	if s.eng != nil {
		p.ops.engAppend(s.eng, key) // errors are sticky; surfaced by Sync/Flush/Close
		return
	}
	i := search.UpperBound(p.bounds, key)
	sh := p.shards[i]
	sh.mu.Lock()
	if sh.buf == nil {
		sh.buf = p.ops.bufs.Get()
	}
	sh.buf = append(sh.buf, key)
	full := len(sh.buf) >= s.thresh
	sh.mu.Unlock()
	if full {
		select {
		case p.wake <- struct{}{}:
		default: // a queued wake covers this shard too
		}
	}
}

// insertDurable inserts keys and returns once they are crash-durable: on a
// persistent store through the engine's group-commit plane, in memory by
// inserting them.
func (p *memPlane[K, S]) insertDurable(keys []K) error {
	s := p.s
	if s.repl.follower != nil {
		return ErrFollowerStore
	}
	if s.eng == nil {
		for _, k := range keys {
			p.insert(k)
		}
		return nil
	}
	s.m.inserts.Add(int64(len(keys)))
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	if err := p.ops.engCommit(s.eng, keys); err != nil {
		return err
	}
	if obs.Enabled {
		s.m.insertNs.ObserveDuration(time.Since(start))
	}
	return nil
}

// merger is an in-memory store's background goroutine: each wake sweeps
// the full shards and waits for the sweep to finish. It returns on quit
// without draining; stop flushes once after it.
func (p *memPlane[K, S]) merger() {
	defer p.wg.Done()
	for {
		select {
		case <-p.wake:
			p.sweep()
		case <-p.quit:
			return
		}
	}
}

// stop ends the merger, then drains every shard: Close's barrier.
func (p *memPlane[K, S]) stop() {
	close(p.quit)
	p.wg.Wait()
	p.flush()
}

// sweep drains every shard whose buffer has reached the threshold.
func (p *memPlane[K, S]) sweep() {
	p.drainWhere(func(sh *shard[K, S]) bool { return sh.full(p.s.thresh) })
}

// flush drains every shard.
func (p *memPlane[K, S]) flush() {
	p.drainWhere(func(*shard[K, S]) bool { return true })
}

// drainWhere drains the shards want selects on min(shards, GOMAXPROCS)
// drainers, the caller being one, and returns when all are done. Each
// drainer takes the next shard index from a shared counter, and each
// drain trains on its share of the cores.
func (p *memPlane[K, S]) drainWhere(want func(*shard[K, S]) bool) {
	procs := runtime.GOMAXPROCS(0)
	drainers := min(len(p.shards), procs)
	workers := procs / drainers
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1) - 1); i < len(p.shards); i = int(next.Add(1) - 1) {
			if want(p.shards[i]) {
				p.drain(i, workers)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(drainers - 1)
	for d := 1; d < drainers; d++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// drain merges shard i's buffer into a fresh snapshot, trained on workers
// goroutines, and publishes it. Readers are never blocked: the retrain
// happens on a private copy and the swap is a single atomic store.
// Same-shard drains serialize on mergeMu.
func (p *memPlane[K, S]) drain(i, workers int) {
	s, sh := p.s, p.shards[i]
	sh.mergeMu.Lock()
	defer sh.mergeMu.Unlock()
	sh.mu.Lock()
	buf := sh.buf
	sh.buf = nil
	if len(buf) > 0 {
		sh.draining = buf // scans see the in-flight keys until publication
	}
	sh.mu.Unlock()
	if len(buf) == 0 {
		return
	}
	// release clears the scan-visible draining reference and only then
	// recycles the buffers — a pooled buffer must never be re-appended to
	// while a scan capture could still be copying it. Entries are zeroed so
	// a pooled buffer never pins drained key bytes.
	release := func(work []K) {
		sh.mu.Lock()
		sh.draining = nil
		sh.mu.Unlock()
		clear(buf)
		clear(work)
		p.ops.bufs.Put(buf)
		p.ops.bufs.Put(work)
	}
	var drainStart time.Time
	if obs.Enabled {
		drainStart = time.Now()
	}
	// Sort a copy: buf is concurrently readable as sh.draining.
	work := append(p.ops.bufs.Get(), buf...)
	slices.Sort(work)
	deduped := slices.Compact(work)
	// A string shard's keys become strings only for this merge: one run out
	// of the dictionary's arena, let go once the new index has copied it.
	cur := sh.snap.Load()
	merged := scan.MergeRuns([][]K{p.ops.keys(cur), deduped})
	if len(merged) == p.ops.size(cur) {
		// Every buffered key was already present: the published snapshot
		// covers them, so draining can clear without a swap.
		release(work)
		return
	}
	var trainStart time.Time
	if obs.Enabled {
		trainStart = time.Now()
	}
	snap := p.ops.build(merged, s.cfg, workers)
	if obs.Enabled {
		s.m.trainNs[i].ObserveDuration(time.Since(trainStart))
	}
	sh.snap.Store(snap)
	s.m.swaps.Inc()
	release(work)
	if obs.Enabled {
		s.m.drainNs[i].ObserveDuration(time.Since(drainStart))
	}
}

func (p *memPlane[K, S]) numShards() int { return len(p.shards) }

func (p *memPlane[K, S]) len() int {
	total := 0
	for _, sh := range p.shards {
		total += p.ops.size(sh.snap.Load())
	}
	return total
}

func (p *memPlane[K, S]) pending() int {
	total := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		total += len(sh.buf)
		sh.mu.Unlock()
	}
	return total
}

func (p *memPlane[K, S]) shardState(i int) (int, *core.Plan) {
	sh := p.shards[i]
	sh.mu.Lock()
	d := len(sh.buf) + len(sh.draining)
	sh.mu.Unlock()
	return d, p.ops.plan(sh.snap.Load())
}

// lookup is Lookup and LookupString: the global lower-bound position of
// key, with 1-in-64 sampled metrics.
func (p *memPlane[K, S]) lookup(key K) int {
	s := p.s
	if p.ops.sampled(&s.m, key) {
		s.m.lookups.Add(64)
		if obs.Enabled {
			start := time.Now()
			pos := p.lookupPos(key)
			s.m.lookupNs.ObserveDuration(time.Since(start))
			return pos
		}
	}
	return p.lookupPos(key)
}

func (p *memPlane[K, S]) lookupPos(key K) int {
	if e := p.s.eng; e != nil {
		return p.ops.engLookup(e, key)
	}
	i := search.UpperBound(p.bounds, key)
	total := 0
	for _, sh := range p.shards[:i] {
		total += p.ops.size(sh.snap.Load())
	}
	return total + p.ops.lookup(p.shards[i].snap.Load(), key)
}

// has is Contains and ContainsString.
func (p *memPlane[K, S]) has(key K) bool {
	if e := p.s.eng; e != nil {
		return p.ops.engContains(e, key)
	}
	return p.ops.contains(p.shards[search.UpperBound(p.bounds, key)].snap.Load(), key)
}

// lookupBatch is LookupBatch and LookupBatchString. Per-batch metrics: two
// sharded atomic adds (batch count + sampler tick) plus one histogram add
// — amortized over the whole batch, which is what keeps the instrumented
// build within the <3% overhead gate. Latency is timed only on 1-in-64
// sampled batches.
func (p *memPlane[K, S]) lookupBatch(probes []K) []int {
	s := p.s
	s.m.batches.Inc()
	s.m.batchLen.Observe(uint64(len(probes)))
	if obs.Enabled && s.m.sampler.Tick() {
		start := time.Now()
		out := p.rankBatch(probes)
		s.m.batchNs.ObserveDuration(time.Since(start))
		return out
	}
	return p.rankBatch(probes)
}

func (p *memPlane[K, S]) rankBatch(probes []K) []int {
	out := make([]int, len(probes))
	switch {
	case len(probes) == 0:
	case p.s.eng != nil:
		p.ops.engLookupBatch(p.s.eng, probes, out)
	default:
		p.ops.memLookupBatch(p, probes, out)
	}
	return out
}

// containsBatch is ContainsBatch and ContainsBatchString.
func (p *memPlane[K, S]) containsBatch(probes []K) []bool {
	out := make([]bool, len(probes))
	switch {
	case len(probes) == 0:
	case p.s.eng != nil:
		// One captured segment list for the whole batch, walked segment by
		// segment: the engine fences the whole batch per segment, and only
		// the in-fence probes run a model, together.
		p.ops.engContainsBatch(p.s.eng, probes, out)
	default:
		p.ops.memContainsBatch(p, probes, out)
	}
	return out
}

// captureBatch is the in-memory batch prologue: it appends every shard's
// published snapshot to snaps — one atomic load per shard, taken once, the
// consistent view of the call — and each probe's shard to sel.
func (p *memPlane[K, S]) captureBatch(snaps []*S, sel []int32, probes []K) ([]*S, []int32) {
	for _, sh := range p.shards {
		snaps = append(snaps, sh.snap.Load())
	}
	if len(probes) > cap(sel) {
		sel = make([]int32, len(probes))
	}
	sel = sel[:len(probes)]
	for i, k := range probes {
		sel[i] = int32(search.UpperBound(p.bounds, k))
	}
	return snaps, sel
}

// globalize turns the batch kernel's shard-local positions into global
// ones: each answer plus the key count of the shards before its own.
func globalize[S any](snaps []*S, sel []int32, out []int, size func(*S) int) {
	var obuf [stackShards]int
	offs, total := obuf[:0], 0
	for _, x := range snaps {
		offs = append(offs, total)
		total += size(x)
	}
	for i, si := range sel {
		out[i] += offs[si]
	}
}
