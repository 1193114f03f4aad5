// Package serve is the concurrent serving layer over the learned index: a
// range-sharded, RCU-style store built for the read-heavy traffic the paper
// targets (§3.1 frames learned range indexes as in-memory serving
// structures; the ROADMAP's north star is sharding + batching + concurrency
// on top of them).
//
// # Architecture
//
// Keys are range-partitioned across N shards with boundaries picked from
// the initial sorted key space, so every shard serves a contiguous key
// range and a key finds its shard with one branchless search of the split
// keys. Each shard holds an immutable snapshot — its sorted key array, the
// RMI trained over it, and the RMI's compiled inference plan (core.Plan),
// which every read on the snapshot executes — behind an atomic.Pointer.
// Readers load the pointer and never take a lock.
//
// A batch read captures every shard's plan once and hands the whole batch,
// in the order it arrived, to core's batch kernel (core.LookupBatch). The
// batch is never sorted or cut into per-shard runs: the model has already
// narrowed each probe to a window of a few cache lines, so what is left to
// buy on a key array larger than cache is memory-level parallelism, and
// one lockstep search across all 64 probes keeps eight times the misses in
// flight that eight per-shard runs of 8 do. Answers land in probe order;
// there is nothing to un-permute and no scratch to pool. String stores
// batch the same way through core.LookupBatchStrings, and a persistent
// store of either key kind hands the batch, still in arrival order, to the
// storage engine's rank kernel: one captured segment list, a fence test per
// (probe, segment), and the same core kernel over the pairs that are left.
//
// Inserts append to a small per-shard buffer under a mutex; when the
// buffer passes the merge threshold, the background merger dispatches a
// drain: sort, dedup against the snapshot, merge into a fresh key array,
// retrain the RMI off the hot path, and atomically publish the new
// snapshot (classic read-copy-update). Drains of *different* shards run
// concurrently — per-shard merge state plus a retrain semaphore bounded by
// GOMAXPROCS — and each retrain itself fits on core's worker pool, so a
// burst that fills many shards produces segments as fast as the cores
// allow instead of queueing behind one serial merge loop.
//
// # Consistency model
//
//   - Reads (Lookup, Contains, LookupBatch, ContainsBatch, Len) are
//     lock-free and see the latest *published* snapshot of each shard:
//     per-shard snapshot isolation. A read never blocks on, nor is torn by,
//     a concurrent merge.
//   - Inserts are buffered and become visible only when their shard's
//     buffer is drained — after the background merge (bounded staleness of
//     one merge cycle) or a synchronous Flush, which acts as a visibility
//     barrier for every insert that returned before it.
//   - The store has set semantics: duplicate inserts and re-inserts of
//     present keys are absorbed at merge time, so Len counts distinct
//     committed keys exactly.
//   - Positions returned by Lookup/LookupBatch are global lower-bound
//     positions over a point-in-time capture of all shard snapshots (one
//     atomic load per shard, taken once per call). Concurrent merges may
//     shift positions between calls, but within a single call every
//     position is consistent with the captured view.
//   - Range queries (Scan, ScanBatch, CountRange — see scan.go) have a
//     *stronger* visibility rule than point reads: they observe every
//     Insert that returned before the call, including still-buffered ones,
//     via a loss-free capture of the buffer + in-flight drain + snapshot
//     layers; an open scan is then fully isolated from later mutations.
//   - A single Store method may be called from any number of goroutines
//     concurrently with any other, including Insert, Flush, and Close.
//     This package is the supported concurrent entry point.
//
// # Persistence
//
// With Options.Dir set (use Open, which can fail), the Store is backed by
// the disk engine of internal/storage instead of in-memory shard
// snapshots: every Insert appends to a write-ahead log, Sync acknowledges
// durability (fsync), background drains merge the pending keys into the
// engine's resident run — readable at once, with the WAL as their durable
// home — which the engine writes out as an immutable segment file, carrying
// its serialized RMI and Bloom filter, every 64k keys and at Flush and
// Close, trimming the WAL then; reads are served from the per-segment
// models, consulting each segment's Bloom filter before any key block is
// searched. The visibility contract is unchanged (inserts become readable
// at the next drain or Flush); reopening after a crash serves exactly the
// durable keys: all segment files plus the intact WAL tail. I/O errors
// are sticky in the engine and surface on Sync, Flush-following-Sync, and
// Close.
package serve

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/search"
	"learnedindex/internal/slicepool"
	"learnedindex/internal/storage"
	"learnedindex/internal/vfs"
)

// Options configures a Store.
type Options struct {
	// Shards is the number of range partitions (default 8). More shards
	// mean smaller retrains and less merge interference, at the cost of a
	// larger capture per global lookup. Ignored when Dir is set.
	Shards int
	// MergeThreshold is the per-shard buffered-insert count that wakes the
	// background merger (default 4096). With Dir set it is the pending-key
	// count that triggers a background engine drain: the keys become
	// readable in the engine's resident run; when they become a segment
	// file is the engine's business (storage.Engine.Drain).
	MergeThreshold int
	// Dir, when non-empty, makes the Store persistent: a WAL plus learned
	// segment files under this directory (created if absent). Empty keeps
	// today's purely in-memory behavior.
	Dir string
	// BloomFPR is the per-segment Bloom filter false-positive rate of a
	// persistent Store (default 0.01). Ignored when Dir is empty.
	BloomFPR float64
	// CompactFanout is how many segments of one size class, contiguous but
	// for smaller segments between them, trigger a background merge in a
	// persistent Store (default 4). Ignored when Dir is empty.
	CompactFanout int
	// MetricsAddr, when non-empty, starts a debug HTTP listener on that
	// address serving the Store's metrics plane: /metrics (Prometheus
	// text), /metrics.json, and /debug/pprof. The endpoints carry no
	// authentication — bind loopback (e.g. "127.0.0.1:0") unless the
	// network perimeter already restricts access. The bound address is
	// reported by DebugAddr; the listener closes with the Store.
	MetricsAddr string
	// FS is the filesystem a persistent Store performs every file
	// operation on (internal/vfs). Nil means the real OS; fault-injection
	// tests swap in a vfs.FaultFS. Ignored when Dir is empty.
	FS vfs.FS
	// ScrubInterval, when > 0 on a persistent Store, starts the engine's
	// background scrubber: segment files are re-checksummed on this period
	// and rewritten from memory if they rotted on disk. Ignored when Dir
	// is empty.
	ScrubInterval time.Duration
	// BackpressureDebt is the persistent engine's compaction-debt
	// threshold at which writers briefly stall so the compactor can catch
	// up: 0 means the engine default, negative disables backpressure.
	// Ignored when Dir is empty.
	BackpressureDebt int
}

// snapshot is one shard's immutable published state. Nothing in it is ever
// mutated after publication; replacement is by pointer swap. plan is the
// RMI's compiled read path, captured at swap-in so every read on the
// snapshot executes the devirtualized flat plan instead of interpreting
// the model tree.
type snapshot struct {
	keys []uint64
	rmi  *core.RMI
	plan *core.Plan
}

// newSnapshot publishes keys behind a freshly trained RMI plus its
// compiled plan. workers is the training worker budget (0 lets the
// trainer pick): drains pass their share of the machine so concurrent
// shard retrains compose to ~GOMAXPROCS total workers instead of
// multiplying into it.
func newSnapshot(keys []uint64, cfg core.Config, workers int) *snapshot {
	var rmi *core.RMI
	if workers > 0 {
		rmi = core.NewWithTrainWorkers(keys, cfg, workers)
	} else {
		rmi = core.New(keys, cfg)
	}
	return &snapshot{keys: keys, rmi: rmi, plan: rmi.Plan()}
}

type shard struct {
	snap atomic.Pointer[snapshot]
	// mergeMu serializes drains so at most one retrain per shard runs at a
	// time (background merger and Flush may race to drain the same shard).
	// Different shards' drains run concurrently, bounded only by the
	// store's retrain semaphore.
	mergeMu sync.Mutex
	// merging gates background drain dispatch: one in-flight background
	// drain per shard, so a hot shard cannot pile up goroutines.
	merging atomic.Bool
	// mu protects buf, the unordered insert buffer, and draining.
	mu  sync.Mutex
	buf []uint64
	// draining holds the buffer a drain has taken but not yet published:
	// from the moment the drain detaches buf until the merged snapshot is
	// swapped in, the keys live here and nowhere readers can see — except
	// scans, which capture buf+draining before loading the snapshot, so a
	// key migrating through a drain is visible at every instant. The drain
	// never mutates the draining slice (it sorts a copy).
	draining []uint64
}

// Store is the sharded serving layer. Create with New (or Open for a
// persistent store), release with Close.
type Store struct {
	bounds []uint64 // len(shards)-1 split keys; shard i serves [bounds[i-1], bounds[i])
	shards []*shard
	// String mode (NewString/OpenString): the codec twin of the fields
	// above. strKeys fixes the store's key mode at construction — exactly
	// one of shards/shardsS is populated, and calling a uint64 method on a
	// string store (or vice versa) panics, mirroring the storage engine's
	// mode discipline.
	strKeys bool
	boundsS []string
	shardsS []*strShard
	cfg     core.Config
	thresh  int
	mergeCh chan int
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	// reg is the store's metrics plane (shared with the storage engine in
	// persistent mode); m holds the pre-resolved handles the hot paths
	// touch, and dbg the optional MetricsAddr debug listener.
	reg *obs.Registry
	m   storeMetrics
	dbg *obs.DebugServer
	// retrainSem bounds concurrent shard retrains: independent shards
	// drain in parallel (each retrain itself fans out over the parallel
	// trainer's worker pool), but the semaphore keeps a wide Flush from
	// oversubscribing the machine with len(shards) simultaneous trainings.
	retrainSem chan struct{}
	// drainWG tracks in-flight background shard drains so Close's shutdown
	// barrier covers them.
	drainWG sync.WaitGroup
	// eng, when non-nil, is the disk engine of a persistent Store; the
	// in-memory shard fields above are unused in that mode.
	eng *storage.Engine
	// repl holds the store's replication attachments: the shipper started
	// by ServeReplication and/or the follower installed by OpenFollower
	// (see follower.go; a follower store refuses every local write).
	repl replState
}

// storeMetrics is the serving layer's handle bundle into the shared
// registry. Counters stay real in every build (they cost one uncontended
// sharded atomic add); histogram observations and the latency-sampling
// branches compile away under -tags noobs. The hot read paths never pay
// more than the sampling decision itself: single-key lookups hash the key
// (obs.SampleKey — multiply, shift, compare, no shared state) and batches
// tick a sharded countdown (m.sampler), so an unsampled call's metrics
// cost is ~1-2 atomic adds against microseconds of work.
type storeMetrics struct {
	swaps    *obs.Counter     // lix_serve_snapshot_swaps_total: RCU publications
	lookups  *obs.Counter     // lix_serve_lookups_total: sampled estimate (+64 per sampled key)
	inserts  *obs.Counter     // lix_serve_inserts_total
	batches  *obs.Counter     // lix_serve_lookup_batches_total
	scans    *obs.Counter     // lix_serve_scans_total
	lookupNs *obs.Histogram   // lix_serve_lookup_ns: sampled single-key latency
	insertNs *obs.Histogram   // lix_serve_durable_insert_ns: group-commit latency
	batchNs  *obs.Histogram   // lix_serve_lookup_batch_ns: sampled batch latency
	batchLen *obs.Histogram   // lix_serve_lookup_batch_probes: probes per batch
	scanOpen *obs.Histogram   // lix_serve_scan_open_ns: capture+seek latency
	scanKeys *obs.Histogram   // lix_serve_scan_keys: keys streamed per closed scan
	drainNs  []*obs.Histogram // lix_serve_drain_ns{shard=i}: buffer-take → publish
	trainNs  []*obs.Histogram // lix_serve_retrain_ns{shard=i}: model training alone
	sampler  *obs.Sampler     // 1-in-64 admission for paths with no key to hash
}

func newStoreMetrics(reg *obs.Registry, nsh int) storeMetrics {
	m := storeMetrics{
		swaps:    reg.Counter("lix_serve_snapshot_swaps_total"),
		lookups:  reg.Counter("lix_serve_lookups_total"),
		inserts:  reg.Counter("lix_serve_inserts_total"),
		batches:  reg.Counter("lix_serve_lookup_batches_total"),
		scans:    reg.Counter("lix_serve_scans_total"),
		lookupNs: reg.Histogram("lix_serve_lookup_ns"),
		insertNs: reg.Histogram("lix_serve_durable_insert_ns"),
		batchNs:  reg.Histogram("lix_serve_lookup_batch_ns"),
		batchLen: reg.Histogram("lix_serve_lookup_batch_probes"),
		scanOpen: reg.Histogram("lix_serve_scan_open_ns"),
		scanKeys: reg.Histogram("lix_serve_scan_keys"),
		sampler:  obs.NewSampler(64),
	}
	for i := 0; i < nsh; i++ {
		sh := strconv.Itoa(i)
		m.drainNs = append(m.drainNs, reg.Histogram(obs.L("lix_serve_drain_ns", "shard", sh)))
		m.trainNs = append(m.trainNs, reg.Histogram(obs.L("lix_serve_retrain_ns", "shard", sh)))
	}
	return m
}

// initObs wires the store into its metrics registry (nsh in-memory shards;
// 0 for a persistent store, whose drains are the engine's flushes and are
// instrumented there) and starts the optional debug listener. Must run
// before the background merger so no drain races the handle installation.
func (s *Store) initObs(reg *obs.Registry, nsh int, addr string) error {
	s.reg = reg
	s.m = newStoreMetrics(reg, nsh)
	reg.RegisterCollector(s.collect)
	if addr != "" {
		dbg, err := obs.StartDebugServer(addr, reg.Snapshot)
		if err != nil {
			return err
		}
		s.dbg = dbg
	}
	return nil
}

// collect injects the serving layer's point-in-time series into a metrics
// snapshot: shard/queue topology, retrain pressure, and per-shard model
// health (sampled observed error and last-mile window vs the trained
// bound, from each shard's live compiled plan). Per-shard queue depths
// take each shard's buffer mutex briefly — snapshots are rare and the
// buffer critical sections are appends, so a reader never stalls the
// write path noticeably. Engine-backed stores skip the per-shard series:
// the engine's own collector publishes the lix_storage_*/lix_segment_*
// equivalents.
func (s *Store) collect(snap *obs.Snapshot) {
	snap.SetGauge("lix_serve_retrains_inflight", float64(len(s.retrainSem)))
	snap.SetGauge("lix_serve_shards", float64(s.NumShards()))
	if s.eng != nil {
		return // queue depth is the engine's lix_storage_pending_keys
	}
	pending := 0
	var allErr, allLen obs.HistSnapshot
	maxBound := 0
	health := func(i int, p *core.Plan) {
		if p == nil {
			return
		}
		errH, lenH := p.ObsModelErr(), p.ObsSearchLen()
		sh := strconv.Itoa(i)
		snap.AddHistogram(obs.L("lix_serve_model_err", "shard", sh), errH)
		snap.AddHistogram(obs.L("lix_serve_search_window", "shard", sh), lenH)
		snap.SetGauge(obs.L("lix_serve_trained_err_bound", "shard", sh), float64(p.TrainedErrBound()))
		allErr.Merge(errH)
		allLen.Merge(lenH)
		if b := p.TrainedErrBound(); b > maxBound {
			maxBound = b
		}
	}
	if s.strKeys {
		for i, sh := range s.shardsS {
			sh.mu.Lock()
			d := len(sh.buf) + len(sh.draining)
			sh.mu.Unlock()
			snap.SetGauge(obs.L("lix_serve_queue_depth", "shard", strconv.Itoa(i)), float64(d))
			pending += d
			health(i, sh.snap.Load().Plan())
		}
	} else {
		for i, sh := range s.shards {
			sh.mu.Lock()
			d := len(sh.buf) + len(sh.draining)
			sh.mu.Unlock()
			snap.SetGauge(obs.L("lix_serve_queue_depth", "shard", strconv.Itoa(i)), float64(d))
			pending += d
			health(i, sh.snap.Load().plan)
		}
	}
	snap.SetGauge("lix_serve_queued_keys", float64(pending))
	snap.AddHistogram("lix_serve_model_err", allErr)
	snap.AddHistogram("lix_serve_search_window", allLen)
	snap.SetGauge("lix_serve_trained_err_bound", float64(maxBound))
}

// New builds a Store over the initial keys (any order; duplicates are
// dropped) and starts the background merger. cfg configures every shard's
// RMI (and, with opt.Dir set, every segment's); leave cfg.StageSizes empty
// and every train sizes itself to its own key count — ~1k keys per leaf
// behind one sampled inner stage, so on skewed keys a lookup's median
// last-mile window is ~2^5 keys on a 1M-key shard and 2^6–2^8 on a
// 4k–64k-key segment, whose edge leaves take its p99 to 2^10–2^12 (see
// core's zero-Config sizing rule). Explicit StageSizes are shared by all
// shards and all retrains, which is rarely what a growing shard wants.
// With opt.Dir set New panics on an engine error; call Open to handle it
// instead.
func New(keys []uint64, cfg core.Config, opt Options) *Store {
	s, err := Open(keys, cfg, opt)
	if err != nil {
		panic(fmt.Sprintf("serve.New: %v (use serve.Open to handle storage errors)", err))
	}
	return s
}

// Open builds a Store like New, returning engine errors instead of
// panicking. With opt.Dir set it opens (or recovers) the persistent
// engine rooted there, re-serves everything durable from the deserialized
// segment models, persists the provided initial keys (idempotently — keys
// already on disk are deduplicated), and starts the background flusher.
// The initial keys are a bulk load (storage.Engine.BulkLoad): written as
// one segment file, never logged, and durable when Open returns — a crash
// inside Open leaves all of them or none.
func Open(keys []uint64, cfg core.Config, opt Options) (*Store, error) {
	if opt.Dir != "" {
		return openPersistent(keys, (*storage.Engine).BulkLoad, cfg, opt)
	}
	return newInMemory(keys, cfg, opt)
}

// openPersistent opens (or recovers) the engine rooted at opt.Dir in the
// key mode of K, bulk-loads keys through bulkLoad and starts the merger:
// Open and OpenString with a Dir.
func openPersistent[K any](keys []K, bulkLoad func(*storage.Engine, []K) error, cfg core.Config, opt Options) (*Store, error) {
	_, strKeys := any(keys).([]string)
	thresh := opt.MergeThreshold
	if thresh <= 0 {
		thresh = 4096
	}
	reg := obs.NewRegistry()
	eng, err := storage.Open(opt.Dir, storage.Options{
		Config:           cfg,
		BloomFPR:         opt.BloomFPR,
		CompactFanout:    opt.CompactFanout,
		StringKeys:       strKeys,
		Reg:              reg,
		FS:               opt.FS,
		ScrubInterval:    opt.ScrubInterval,
		BackpressureDebt: opt.BackpressureDebt,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		strKeys:    strKeys,
		cfg:        cfg,
		thresh:     thresh,
		mergeCh:    make(chan int, 1),
		quit:       make(chan struct{}),
		retrainSem: make(chan struct{}, maxConcurrentRetrains()),
		eng:        eng,
	}
	if err := s.initObs(reg, 0, opt.MetricsAddr); err != nil {
		eng.Close()
		return nil, err
	}
	if err := bulkLoad(eng, keys); err != nil {
		s.closeDebug()
		eng.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.merger()
	return s, nil
}

// closeDebug shuts the MetricsAddr listener down, if one was started.
func (s *Store) closeDebug() {
	if s.dbg != nil {
		s.dbg.Close()
		s.dbg = nil
	}
}

func newInMemory(keys []uint64, cfg core.Config, opt Options) (*Store, error) {
	nsh := opt.Shards
	if nsh <= 0 {
		nsh = 8
	}
	thresh := opt.MergeThreshold
	if thresh <= 0 {
		thresh = 4096
	}
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	sorted = dedupSorted(sorted)

	s := &Store{
		cfg:        cfg,
		thresh:     thresh,
		mergeCh:    make(chan int, nsh),
		quit:       make(chan struct{}),
		retrainSem: make(chan struct{}, maxConcurrentRetrains()),
	}
	n := len(sorted)
	if n > 0 && nsh > 1 {
		s.bounds = make([]uint64, 0, nsh-1)
		for i := 1; i < nsh; i++ {
			s.bounds = append(s.bounds, sorted[i*n/nsh])
		}
	}
	s.shards = make([]*shard, nsh)
	lo := 0
	for i := range s.shards {
		hi := n
		if i < len(s.bounds) {
			hi = search.Binary(sorted, s.bounds[i], lo, n)
		}
		part := sorted[lo:hi:hi]
		sh := &shard{}
		// Initial shards train one at a time; the trainer's own worker
		// pool is the parallelism here.
		sh.snap.Store(newSnapshot(part, cfg, 0))
		s.shards[i] = sh
		lo = hi
	}
	if err := s.initObs(obs.NewRegistry(), nsh, opt.MetricsAddr); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.merger()
	return s, nil
}

// shardFor routes a key to its range partition — the shard whose
// [bounds[i-1], bounds[i]) window contains it, i.e. the number of split
// keys <= key. It is the store's one shard-select routine, scalar and
// batch: a bisection whose trip count depends only on the shard count and
// whose data-dependent step is arithmetic on a 0/1 flag (the compiler
// materializes le with SETcc; it will not emit a conditional move for a
// value that feeds the next load's address), so a batch of uniform probes
// has no branch to mispredict on it.
func (s *Store) shardFor(key uint64) int {
	base, n := 0, len(s.bounds)
	for n > 0 {
		half := (n + 1) >> 1 // rounds up: the last round tests the last candidate
		le := 0
		if s.bounds[base+half-1] <= key {
			le = 1
		}
		base += half & -le
		n -= half
	}
	return base
}

// Insert buffers a key for its shard and wakes the merger once the buffer
// passes the threshold. The key becomes visible to readers at the next
// drain (background merge or Flush). On a persistent Store the key is
// appended to the WAL first (durable at the next Sync); a write error is
// sticky in the engine and surfaces on Sync/Flush/Close.
func (s *Store) Insert(key uint64) {
	if s.strKeys {
		panic("serve: uint64 insert on a string-keyed store")
	}
	if s.repl.follower != nil {
		panic("serve: insert on a follower store (writes go to the primary)")
	}
	s.m.inserts.Inc()
	if s.eng != nil {
		if s.eng.Append(key) == nil { // an error is sticky; reported by Sync/Close
			s.wakeOnPending()
		}
		return
	}
	i := s.shardFor(key)
	sh := s.shards[i]
	sh.mu.Lock()
	if sh.buf == nil {
		sh.buf = getShardBuf()
	}
	sh.buf = append(sh.buf, key)
	full := len(sh.buf) >= s.thresh
	sh.mu.Unlock()
	if full {
		select {
		case s.mergeCh <- i:
		default: // merger already has work queued; a later insert re-notifies
		}
	}
}

// InsertDurable inserts keys and returns once they are crash-durable: on
// a persistent Store the batch rides the engine's group-commit plane (a
// cohort of concurrent InsertDurable callers shares one WAL frame and one
// fsync), equivalent to Insert-per-key followed by Sync but without each
// caller paying its own disk flush. Like Insert, the keys become readable
// at the next drain or Flush. On an in-memory Store there is no
// durability to wait for; the keys are simply inserted.
func (s *Store) InsertDurable(keys ...uint64) error {
	if s.strKeys {
		panic("serve: uint64 insert on a string-keyed store")
	}
	if s.repl.follower != nil {
		return ErrFollowerStore
	}
	if s.eng == nil {
		for _, k := range keys {
			s.Insert(k)
		}
		return nil
	}
	s.m.inserts.Add(int64(len(keys)))
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	if err := s.eng.CommitBatch(keys); err != nil {
		return err
	}
	if obs.Enabled {
		s.m.insertNs.ObserveDuration(time.Since(start))
	}
	s.wakeOnPending()
	return nil
}

// wakeOnPending wakes the merger of a persistent Store once the engine's
// pending keys reach the drain threshold. Non-blocking: a merger with work
// queued already will drain them.
func (s *Store) wakeOnPending() {
	if s.eng.PendingLen() >= s.thresh {
		select {
		case s.mergeCh <- 0:
		default:
		}
	}
}

// shardBufPool recycles drained insert buffers: a drain hands its buffer
// back after the merge copies the survivors out, so sustained ingest
// stops re-growing a fresh buffer per merge cycle.
var shardBufPool slicepool.Pool[uint64]

func getShardBuf() []uint64  { return shardBufPool.Get() }
func putShardBuf(b []uint64) { shardBufPool.Put(b) }

// maxConcurrentRetrains bounds simultaneous shard retrains per Store.
// Oversubscription is prevented by the per-retrain worker budget
// (retrainWorkers), not by this cap alone: admitted retrains × workers
// per retrain composes to ~GOMAXPROCS CPU-bound goroutines.
func maxConcurrentRetrains() int {
	if w := runtime.GOMAXPROCS(0); w > 1 {
		return w
	}
	return 1
}

// retrainWorkers is a drain's training worker budget: the machine's
// cores split across the retrains that can run at once (shard count or
// semaphore capacity, whichever is smaller), floored at 1. An 8-shard
// store on 16 cores trains 8 concurrent drains x 2 workers; a 2-shard
// store 2 x 8 — full utilization either way, never a multiplied stack.
func (s *Store) retrainWorkers() int {
	p := runtime.GOMAXPROCS(0)
	nsh := len(s.shards)
	if s.strKeys {
		nsh = len(s.shardsS)
	}
	slots := min(nsh, cap(s.retrainSem))
	if slots < 1 {
		slots = 1
	}
	w := p / slots
	if w < 1 {
		w = 1
	}
	return w
}

// merger is the background goroutine: it *dispatches* a concurrent drain
// for whichever shard crossed its threshold — independent shards retrain
// in parallel, bounded by the retrain semaphore — and on shutdown waits
// for in-flight drains, then drains everything so Close is a barrier. On
// a persistent Store a drain is an engine drain: pending keys merge into
// the engine's resident run, readable at once and a segment file later.
func (s *Store) merger() {
	defer s.wg.Done()
	for {
		select {
		case i := <-s.mergeCh:
			s.dispatchDrain(i)
			s.sweep()
		case <-s.quit:
			s.drainWG.Wait()
			s.Flush()
			return
		}
	}
}

// dispatchDrain starts a background drain of shard i unless one is
// already in flight for it. After the drain, a buffer that refilled past
// the threshold re-signals the merger, preserving bounded staleness for
// hot shards.
func (s *Store) dispatchDrain(i int) {
	if s.eng != nil {
		// A merge token can outlive the drain it asked for (it was queued
		// while that drain ran): re-check (lock-free), or each stale token
		// retrains the resident run for a sliver of keys.
		if s.eng.PendingLen() >= s.thresh {
			s.eng.Drain() // errors are sticky; surfaced by Sync/Close
		}
		return
	}
	if s.strKeys {
		s.dispatchDrainStr(i)
		return
	}
	sh := s.shards[i]
	if !sh.merging.CompareAndSwap(false, true) {
		return // this shard's drain is already queued or running
	}
	s.drainWG.Add(1)
	go func() {
		defer s.drainWG.Done()
		s.drain(i)
		sh.merging.Store(false)
		sh.mu.Lock()
		over := len(sh.buf) >= s.thresh
		sh.mu.Unlock()
		if over {
			select {
			case s.mergeCh <- i:
			default:
			}
		}
	}()
}

// sweep dispatches a drain for every shard whose buffer crossed the
// threshold while the merger was busy: a hot shard can fill mergeCh with
// its own index, so a cold shard's single notification may have been
// dropped. The post-signal sweep restores the bounded-staleness promise
// for those shards.
func (s *Store) sweep() {
	if s.eng != nil {
		s.dispatchDrain(0)
		return
	}
	if s.strKeys {
		for i, sh := range s.shardsS {
			sh.mu.Lock()
			over := len(sh.buf) >= s.thresh
			sh.mu.Unlock()
			if over {
				s.dispatchDrainStr(i)
			}
		}
		return
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		over := len(sh.buf) >= s.thresh
		sh.mu.Unlock()
		if over {
			s.dispatchDrain(i)
		}
	}
}

// drain merges shard i's buffer into a fresh snapshot and publishes it.
// Readers are never blocked: the retrain happens on a private copy and the
// swap is a single atomic store. Same-shard drains serialize on mergeMu;
// different shards proceed concurrently up to the retrain semaphore.
func (s *Store) drain(i int) {
	sh := s.shards[i]
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
	// while a scan capture could still be copying it.
	release := func(work []uint64) {
		sh.mu.Lock()
		sh.draining = nil
		sh.mu.Unlock()
		putShardBuf(buf)
		putShardBuf(work)
	}
	s.retrainSem <- struct{}{}
	defer func() { <-s.retrainSem }()
	var drainStart time.Time
	if obs.Enabled {
		drainStart = time.Now()
	}
	// Sort a copy: buf is concurrently readable as sh.draining.
	work := append(getShardBuf(), buf...)
	slices.Sort(work)
	deduped := dedupSorted(work)
	cur := sh.snap.Load()
	merged := mergeDedup(cur.keys, deduped)
	if len(merged) == len(cur.keys) {
		// Every buffered key was already present: the published snapshot
		// covers them, so draining can clear without a swap.
		release(work)
		return
	}
	var trainStart time.Time
	if obs.Enabled {
		trainStart = time.Now()
	}
	snap := newSnapshot(merged, s.cfg, s.retrainWorkers())
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

// Flush synchronously drains every shard — concurrently, bounded by the
// retrain semaphore — a visibility barrier making all previously returned
// Inserts readable. On a persistent Store it is an engine Flush: every
// key inserted so far, the background drains' resident run included, lands
// in one fsynced segment file and the WAL is trimmed.
func (s *Store) Flush() {
	if s.eng != nil {
		s.eng.Flush() // errors are sticky; surfaced by Sync/Close
		return
	}
	var wg sync.WaitGroup
	if s.strKeys {
		for i := range s.shardsS {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.drainStr(i)
			}(i)
		}
		wg.Wait()
		return
	}
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.drain(i)
		}(i)
	}
	wg.Wait()
}

// Sync is the durability barrier of a persistent Store: when it returns
// nil, every Insert that returned before the call survives a crash (WAL
// fsync acknowledgement). It also surfaces any sticky engine write error.
// On an in-memory Store it is a no-op. On a follower store it returns
// ErrFollowerStore: there is nothing local to make durable, because every
// local write was refused.
func (s *Store) Sync() error {
	if s.repl.follower != nil {
		return ErrFollowerStore
	}
	if s.eng == nil {
		return nil
	}
	return s.eng.Sync()
}

// Close stops the background merger after a final drain of every shard.
// Safe to call more than once; an in-memory Store remains readable
// afterwards, and Flush keeps working (drains run in the caller). An
// Insert racing Close can land just after the shutdown drain — the
// trailing Flush below publishes those; an Insert that starts after Close
// returns stays buffered until the caller's next Flush. A persistent
// Store flushes everything pending, releases the engine, and reports any
// sticky write error; it must not be used afterwards.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.closeDebug()
	s.closeRepl()
	close(s.quit)
	s.wg.Wait()
	if s.eng != nil {
		return s.eng.Close()
	}
	s.Flush()
	return nil
}

// Lookup returns the global lower-bound position of key over the committed
// view: the index of the first committed key >= key. Allocation-free: it
// captures only the snapshots it reads (one atomic load per shard). On a
// persistent Store the position is the exact sum of per-segment model
// lookups (segments hold disjoint key sets).
//
// Metrics on this path are fully sampled: an unsampled call pays one
// multiply (obs.SampleKey), a 1-in-64 sampled call additionally times
// itself into lix_serve_lookup_ns and bumps lix_serve_lookups_total by 64
// — the counter is a sampled estimate, not an exact call count.
func (s *Store) Lookup(key uint64) int {
	if s.strKeys {
		panic("serve: uint64 read on a string-keyed store")
	}
	if obs.SampleKey(key) {
		s.m.lookups.Add(64)
		if obs.Enabled {
			start := time.Now()
			pos := s.lookupPos(key)
			s.m.lookupNs.ObserveDuration(time.Since(start))
			return pos
		}
	}
	return s.lookupPos(key)
}

func (s *Store) lookupPos(key uint64) int {
	if s.eng != nil {
		return s.eng.Lookup(key)
	}
	i := s.shardFor(key)
	total := 0
	for j := 0; j < i; j++ {
		total += len(s.shards[j].snap.Load().keys)
	}
	return total + s.shards[i].snap.Load().plan.Lookup(key)
}

// Contains reports whether key is committed. On a persistent Store each
// segment's Bloom filter is consulted before its key block is searched,
// so misses rarely touch a model.
func (s *Store) Contains(key uint64) bool {
	if s.strKeys {
		panic("serve: uint64 read on a string-keyed store")
	}
	if s.eng != nil {
		return s.eng.Contains(key)
	}
	return s.shards[s.shardFor(key)].snap.Load().plan.Contains(key)
}

// Len returns the number of distinct committed keys.
func (s *Store) Len() int {
	if s.eng != nil {
		return s.eng.Len()
	}
	total := 0
	if s.strKeys {
		for _, sh := range s.shardsS {
			total += sh.snap.Load().Len()
		}
		return total
	}
	for _, sh := range s.shards {
		total += len(sh.snap.Load().keys)
	}
	return total
}

// Pending returns the number of buffered (not yet visible) inserts,
// counting duplicates that a drain would absorb.
func (s *Store) Pending() int {
	if s.eng != nil {
		return s.eng.PendingLen()
	}
	total := 0
	if s.strKeys {
		for _, sh := range s.shardsS {
			sh.mu.Lock()
			total += len(sh.buf)
			sh.mu.Unlock()
		}
		return total
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.buf)
		sh.mu.Unlock()
	}
	return total
}

// Merges returns how many snapshot publications have happened (engine
// drains and flushes on a persistent Store).
func (s *Store) Merges() int {
	if s.eng != nil {
		st := s.eng.Stats()
		return st.Drains + st.Flushes
	}
	return int(s.m.swaps.Load())
}

// NumShards returns the partition count (1 on a persistent Store, whose
// sharding is the segment list).
func (s *Store) NumShards() int {
	if s.eng != nil {
		return 1
	}
	if s.strKeys {
		return len(s.shardsS)
	}
	return len(s.shards)
}

// StorageStats returns the disk engine's statistics and true when the
// Store is persistent; the zero Stats and false otherwise. Stats is the
// fixed accounting view carved out of the same metrics registry Metrics
// exposes — the counters agree with the lix_storage_* series by
// construction — and it is read consistently: a Stats racing a flush
// never shows a segment before the flush that produced it.
func (s *Store) StorageStats() (storage.Stats, bool) {
	if s.eng == nil {
		return storage.Stats{}, false
	}
	return s.eng.Stats(), true
}

// Health reports the persistent engine's failure state and the error that
// caused it: storage.HealthOK (nil error) on full service, HealthDegraded
// when the segment plane failed and the store went read-only, and
// HealthFailed when the commit plane failed and the engine is fail-stop
// (see the storage package's failure model). A purely in-memory Store is
// always HealthOK. Reads keep serving in every state.
func (s *Store) Health() (storage.Health, error) {
	if s.eng == nil {
		return storage.HealthOK, nil
	}
	return s.eng.Health()
}

// Scrub re-verifies every live segment file's checksum on a persistent
// Store, rewriting any corrupt file from the in-memory image, and reports
// how many segments were checked and healed. A no-op (0, 0, nil) on an
// in-memory Store. See Options.ScrubInterval for the background version.
func (s *Store) Scrub() (checked, healed int, err error) {
	if s.eng == nil {
		return 0, 0, nil
	}
	return s.eng.Scrub()
}

// Metrics returns a point-in-time snapshot of every metric the Store —
// and, when persistent, its storage engine — publishes: traffic counters,
// latency/size histograms, per-shard drain/retrain durations and queue
// depths, and (persistent) WAL, flush, compaction, per-segment Bloom
// funnel, and model-health series. Safe to call concurrently with any
// other Store method; serialize with Snapshot.WritePrometheus or
// Snapshot.WriteJSON.
func (s *Store) Metrics() *obs.Snapshot { return s.reg.Snapshot() }

// Registry exposes the Store's metrics registry so embedders can register
// their own metrics or collectors on the same export plane.
func (s *Store) Registry() *obs.Registry { return s.reg }

// StringKeys reports the store's key mode: true for a NewString/OpenString
// store (string methods valid), false for a uint64 store. Embedders that
// front the store generically — the network server, for one — use it to
// pick the right method family instead of guessing and panicking.
func (s *Store) StringKeys() bool { return s.strKeys }

// DebugAddr returns the bound address of the Options.MetricsAddr debug
// listener ("host:port", useful with a ":0" request), or "" when none was
// started.
func (s *Store) DebugAddr() string {
	if s.dbg == nil {
		return ""
	}
	return s.dbg.Addr()
}

// LookupBatch answers Lookup for every probe, in probe order, against one
// consistent captured view. The batch is neither sorted nor split. In
// memory each probe picks its shard with a branchless compare against the
// split keys and the whole batch goes through core's batch kernel as it
// arrived, so one lockstep search keeps the misses of every probe — across
// all shards — in flight together. A persistent store hands the batch to
// the engine's rank kernel, which fences every probe against every segment
// of one captured list and runs only the in-fence (probe, segment) pairs
// through the same core kernel. Either way the answers land in probe order
// with nothing to un-permute.
func (s *Store) LookupBatch(probes []uint64) []int {
	if s.strKeys {
		panic("serve: uint64 read on a string-keyed store")
	}
	// Per-batch metrics: two sharded atomic adds (batch count + sampler
	// tick) plus one histogram add — amortized over the whole batch, which
	// is what keeps the instrumented build within the <3% overhead gate.
	// Latency is timed only on 1-in-64 sampled batches.
	s.m.batches.Inc()
	s.m.batchLen.Observe(uint64(len(probes)))
	if obs.Enabled && s.m.sampler.Tick() {
		start := time.Now()
		out := s.lookupBatch(probes)
		s.m.batchNs.ObserveDuration(time.Since(start))
		return out
	}
	return s.lookupBatch(probes)
}

func (s *Store) lookupBatch(probes []uint64) []int {
	out := make([]int, len(probes))
	if len(probes) == 0 {
		return out
	}
	if s.eng != nil {
		s.eng.LookupBatch(probes, out)
		return out
	}
	var pbuf [stackShards]*core.Plan
	var sbuf [stackProbes]int32
	plans, sel := s.captureBatch(pbuf[:0], sbuf[:0], probes)
	core.LookupBatch(plans, sel, probes, out)
	// Shard-local to global: add the key count of the shards before.
	var obuf [stackShards]int
	offs, total := obuf[:0], 0
	for _, p := range plans {
		offs = append(offs, total)
		total += p.Len()
	}
	for i, si := range sel {
		out[i] += offs[si]
	}
	return out
}

// ContainsBatch reports membership for every probe, in probe order,
// against one consistent captured view.
func (s *Store) ContainsBatch(probes []uint64) []bool {
	if s.strKeys {
		panic("serve: uint64 read on a string-keyed store")
	}
	out := make([]bool, len(probes))
	if len(probes) == 0 {
		return out
	}
	if s.eng != nil {
		// One captured segment list for the whole batch (the consistent
		// view promised above), walked segment by segment: the engine hashes
		// each probe once and runs fence and Bloom filter for the whole
		// batch per segment before any model runs.
		s.eng.ContainsBatch(probes, out)
		return out
	}
	var pbuf [stackShards]*core.Plan
	var sbuf [stackProbes]int32
	plans, sel := s.captureBatch(pbuf[:0], sbuf[:0], probes)
	core.ContainsBatch(plans, sel, probes, out)
	return out
}

// stackShards and stackProbes size the buffers an in-memory batch read
// keeps on its own stack: up to this many shards and probes, the call's
// only allocation is its result.
const (
	stackShards = 16
	stackProbes = 64
)

// captureBatch is the in-memory batch prologue: it appends every shard's
// published plan to plans — one atomic load per shard, taken once, the
// consistent view of the call — and each probe's shard to sel.
func (s *Store) captureBatch(plans []*core.Plan, sel []int32, probes []uint64) ([]*core.Plan, []int32) {
	for _, sh := range s.shards {
		plans = append(plans, sh.snap.Load().plan)
	}
	if len(probes) > cap(sel) {
		sel = make([]int32, len(probes))
	}
	sel = sel[:len(probes)]
	for i, k := range probes {
		sel[i] = int32(s.shardFor(k))
	}
	return plans, sel
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(ks []uint64) []uint64 {
	if len(ks) == 0 {
		return ks
	}
	dst := ks[:1]
	for _, v := range ks[1:] {
		if v != dst[len(dst)-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

// mergeDedup merges sorted base with sorted, deduped extra, skipping extra
// keys already in base. The result is a fresh array (base stays immutable).
func mergeDedup[K cmp.Ordered](base, extra []K) []K {
	merged := make([]K, 0, len(base)+len(extra))
	i, j := 0, 0
	for i < len(base) && j < len(extra) {
		switch {
		case base[i] < extra[j]:
			merged = append(merged, base[i])
			i++
		case base[i] > extra[j]:
			merged = append(merged, extra[j])
			j++
		default:
			merged = append(merged, base[i])
			i++
			j++
		}
	}
	merged = append(merged, base[i:]...)
	merged = append(merged, extra[j:]...)
	return merged
}
