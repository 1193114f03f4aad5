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
// keys. Each shard holds an immutable snapshot — the compiled inference
// plan (core.Plan) of the RMI trained over its sorted key array, or for
// string keys a core.StringIndex, the same plan over the keys' 8-byte
// prefixes plus the dictionary that holds the keys — behind an
// atomic.Pointer. Readers load the pointer and never take a lock.
//
// The in-memory plane is written once for both key modes (plane.go): one
// generic shard, drain, batch capture and scan capture, over a small table
// of what differs (memOps). A store's key mode is fixed at construction;
// calling a method of the other mode panics.
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
// buffer passes the merge threshold, the insert wakes the background
// merger, which drains every full shard: sort, dedup against the snapshot,
// merge into a fresh key array, retrain the RMI off the hot path, and
// atomically publish the new snapshot (classic read-copy-update). A sweep
// and a Flush run their drains on min(shards, GOMAXPROCS) goroutines, and
// each retrain fits on that drainer's share of the cores.
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
// snapshots, and starts no merger: every Insert appends to a write-ahead
// log, Sync acknowledges durability (fsync), and the engine drains itself —
// once MergeThreshold keys are pending (storage.Options.DrainKeys) it
// merges them into its resident run, readable at once, with the WAL as
// their durable home. It writes that run out as an immutable segment file,
// carrying its serialized RMI, every 64k keys and at Flush and Close,
// trimming the WAL then; reads are served from the per-segment models,
// fenced by each segment's first and last key. The visibility contract is unchanged (inserts become readable
// at the next drain or Flush); reopening after a crash serves exactly the
// durable keys: all segment files plus the intact WAL tail. I/O errors
// are sticky in the engine and surface on Sync, Flush-following-Sync, and
// Close.
package serve

import (
	"cmp"
	"fmt"
	"strconv"
	"sync/atomic"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
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
	// background merger (default 4096). With Dir set — follower stores
	// included — it is the engine's drain threshold
	// (storage.Options.DrainKeys): once that many keys are pending the
	// engine drains them into its resident run, readable at once; when they
	// become a segment file is the engine's business.
	MergeThreshold int
	// Dir, when non-empty, makes the Store persistent: a WAL plus learned
	// segment files under this directory (created if absent). Empty keeps
	// today's purely in-memory behavior.
	Dir string
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
}

// Store is the sharded serving layer. Create with New (or Open for a
// persistent store), release with Close.
type Store struct {
	// mem is the store's plane for its key mode: the shards of an in-memory
	// store, and on either kind of store the mode itself — a typed method of
	// the other mode panics (see planeOf), mirroring the storage engine's
	// mode discipline.
	mem    keyPlane
	cfg    core.Config
	thresh int
	closed atomic.Bool
	// reg is the store's metrics plane (shared with the storage engine in
	// persistent mode); m holds the pre-resolved handles the hot paths
	// touch, and dbg the optional MetricsAddr debug listener.
	reg *obs.Registry
	m   storeMetrics
	dbg *obs.DebugServer
	// eng, when non-nil, is the disk engine of a persistent Store, whose
	// plane then holds no shard.
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
// 0 for a persistent store, whose drains are the engine's and are
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
// snapshot: shard/queue topology and per-shard model health (sampled
// observed error and last-mile window vs the trained bound, from each
// shard's live compiled plan). Per-shard queue depths take each shard's
// buffer mutex briefly — snapshots are rare and the buffer critical
// sections are appends, so a reader never stalls the write path
// noticeably. Engine-backed stores skip the per-shard series:
// the engine's own collector publishes the lix_storage_*/lix_segment_*
// equivalents.
func (s *Store) collect(snap *obs.Snapshot) {
	snap.SetGauge("lix_serve_shards", float64(s.NumShards()))
	if s.eng != nil {
		return // queue depth is the engine's lix_storage_pending_keys
	}
	pending := 0
	var allErr, allLen obs.HistSnapshot
	maxBound := 0
	for i := 0; i < s.mem.numShards(); i++ {
		d, p := s.mem.shardState(i)
		sh := strconv.Itoa(i)
		snap.SetGauge(obs.L("lix_serve_queue_depth", "shard", sh), float64(d))
		pending += d
		if p == nil {
			continue
		}
		errH, lenH := p.ObsModelErr(), p.ObsSearchLen()
		snap.AddHistogram(obs.L("lix_serve_model_err", "shard", sh), errH)
		snap.AddHistogram(obs.L("lix_serve_search_window", "shard", sh), lenH)
		snap.SetGauge(obs.L("lix_serve_trained_err_bound", "shard", sh), float64(p.TrainedErrBound()))
		allErr.Merge(errH)
		allLen.Merge(lenH)
		maxBound = max(maxBound, p.TrainedErrBound())
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
// segment models and persists the provided initial keys (idempotently —
// keys already on disk are deduplicated).
// The initial keys are a bulk load (storage.Engine.BulkLoad): written as
// one segment file, never logged, and durable when Open returns — a crash
// inside Open leaves all of them or none.
func Open(keys []uint64, cfg core.Config, opt Options) (*Store, error) {
	return open(keys, &u64Ops, cfg, opt)
}

// NewString builds a string-keyed Store over the initial keys (any order;
// duplicates dropped), the codec twin of New. Panics on an engine error
// when opt.Dir is set; use OpenString to handle it.
func NewString(keys []string, cfg core.Config, opt Options) *Store {
	s, err := OpenString(keys, cfg, opt)
	if err != nil {
		panic(fmt.Sprintf("serve.NewString: %v (use serve.OpenString to handle storage errors)", err))
	}
	return s
}

// OpenString builds a string-keyed Store like NewString, returning engine
// errors instead of panicking. With opt.Dir set it opens (or recovers) the
// persistent engine in string mode — v2 segment files, string WAL —
// re-serves everything durable from the deserialized codec indexes, and
// bulk-loads the initial keys as one v2 segment file, as Open does.
func OpenString(keys []string, cfg core.Config, opt Options) (*Store, error) {
	return open(keys, &strOps, cfg, opt)
}

// open is Open and OpenString: an in-memory store, or with opt.Dir the
// engine in the key mode of ops, bulk-loaded with keys.
func open[K cmp.Ordered, S any](keys []K, ops *memOps[K, S], cfg core.Config, opt Options) (*Store, error) {
	if opt.Dir == "" {
		return newInMemory(keys, ops, cfg, opt)
	}
	s, err := openEngine(ops, cfg, opt)
	if err != nil {
		return nil, err
	}
	if err := ops.engBulkLoad(s.eng, keys); err != nil {
		s.closeDebug()
		s.eng.Close()
		return nil, err
	}
	return s, nil
}

// newStore returns a Store holding the fields every kind of store shares.
func newStore(cfg core.Config, opt Options) *Store {
	thresh := opt.MergeThreshold
	if thresh <= 0 {
		thresh = 4096
	}
	return &Store{cfg: cfg, thresh: thresh}
}

// openEngine opens (or recovers) the engine rooted at opt.Dir in the key
// mode of ops and returns the Store over it, metrics wired: the shared
// prologue of open and openFollower. The store starts no goroutine of its
// own: the engine drains itself at the merge threshold.
func openEngine[K cmp.Ordered, S any](ops *memOps[K, S], cfg core.Config, opt Options) (*Store, error) {
	s := newStore(cfg, opt)
	reg := obs.NewRegistry()
	eng, err := storage.Open(opt.Dir, storage.Options{
		Config:        cfg,
		CompactFanout: opt.CompactFanout,
		DrainKeys:     s.thresh,
		StringKeys:    ops.strKeys,
		Reg:           reg,
		FS:            opt.FS,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.mem = &memPlane[K, S]{s: s, ops: ops}
	if err := s.initObs(reg, 0, opt.MetricsAddr); err != nil {
		eng.Close()
		return nil, err
	}
	return s, nil
}

// closeDebug shuts the MetricsAddr listener down, if one was started.
func (s *Store) closeDebug() {
	if s.dbg != nil {
		s.dbg.Close()
		s.dbg = nil
	}
}

// Insert buffers a key for its shard and wakes the merger once the buffer
// passes the threshold. The key becomes visible to readers at the next
// drain (background merge or Flush). On a persistent Store the key is
// appended to the WAL instead (durable at the next Sync), and the engine
// drains its pending keys itself; a write error is sticky in the engine
// and surfaces on Sync/Flush/Close.
func (s *Store) Insert(key uint64) { s.u64().insert(key) }

// InsertString is Insert in the codec domain, with the same visibility
// contract (readable at the next drain or Flush; durable on a persistent
// store at the next Sync).
func (s *Store) InsertString(key string) { s.str().insert(key) }

// InsertDurable inserts keys and returns once they are crash-durable: on
// a persistent Store the batch rides the engine's group-commit plane (a
// cohort of concurrent InsertDurable callers shares one WAL frame and one
// fsync), equivalent to Insert-per-key followed by Sync but without each
// caller paying its own disk flush. Like Insert, the keys become readable
// at the next drain or Flush. On an in-memory Store there is no
// durability to wait for; the keys are simply inserted.
func (s *Store) InsertDurable(keys ...uint64) error { return s.u64().insertDurable(keys) }

// InsertDurableString inserts string keys and returns once they are
// crash-durable, riding the engine's group-commit plane like
// InsertDurable. On an in-memory store the keys are simply inserted.
func (s *Store) InsertDurableString(keys ...string) error { return s.str().insertDurable(keys) }

// Flush synchronously drains every shard, on min(shards, GOMAXPROCS)
// goroutines — a visibility barrier making all previously returned
// Inserts readable. On a persistent Store it is an engine Flush: every
// key inserted so far, the background drains' resident run included, lands
// in one fsynced segment file and the WAL is trimmed.
func (s *Store) Flush() {
	if s.eng != nil {
		s.eng.Flush() // errors are sticky; surfaced by Sync/Close
		return
	}
	s.mem.flush()
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

// Close stops the background merger, then drains every shard once. Safe
// to call more than once; an in-memory Store remains readable afterwards,
// and Flush keeps working (drains run in the caller). An Insert that
// lands after Close's drain of its shard stays buffered until the
// caller's next Flush. A persistent Store flushes everything pending,
// releases the engine, and reports any sticky write error; it must not be
// used afterwards.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.closeDebug()
	s.closeRepl()
	if s.eng != nil {
		return s.eng.Close()
	}
	s.mem.stop()
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
func (s *Store) Lookup(key uint64) int { return s.u64().lookup(key) }

// LookupString returns the global lower-bound position of key over the
// committed view in codec (byte) order: the index of the first committed
// key >= key. Metrics are 1-in-64 sampled like Lookup, but through the
// store's shared Sampler — a string key has no cheap hash to slice — so
// an unsampled call pays one sharded atomic add.
func (s *Store) LookupString(key string) int { return s.str().lookup(key) }

// Contains reports whether key is committed. On a persistent Store each
// segment whose fence holds key ranks it through its model, and the key at
// that position answers.
func (s *Store) Contains(key uint64) bool { return s.u64().has(key) }

// ContainsString reports whether a string key is committed.
func (s *Store) ContainsString(key string) bool { return s.str().has(key) }

// Len returns the number of distinct committed keys.
func (s *Store) Len() int {
	if s.eng != nil {
		return s.eng.Len()
	}
	return s.mem.len()
}

// Pending returns the number of buffered (not yet visible) inserts,
// counting duplicates that a drain would absorb.
func (s *Store) Pending() int {
	if s.eng != nil {
		return s.eng.PendingLen()
	}
	return s.mem.pending()
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
	return s.mem.numShards()
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
// in-memory Store.
func (s *Store) Scrub() (checked, healed int, err error) {
	if s.eng == nil {
		return 0, 0, nil
	}
	return s.eng.Scrub()
}

// Metrics returns a point-in-time snapshot of every metric the Store —
// and, when persistent, its storage engine — publishes: traffic counters,
// latency/size histograms, per-shard drain/retrain durations and queue
// depths, and (persistent) WAL, flush, compaction and model-health
// series. Safe to call concurrently with any
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
func (s *Store) StringKeys() bool {
	_, ok := s.mem.(*strPlane)
	return ok
}

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
func (s *Store) LookupBatch(probes []uint64) []int { return s.u64().lookupBatch(probes) }

// LookupBatchString is LookupBatch for a string-keyed store: every probe,
// in probe order, against one consistent captured view, through the same
// kernels — core.LookupBatchStrings over every shard's codec index in
// memory, the engine's rank kernel over one captured segment list on a
// persistent store — and counted in the same batch metrics.
func (s *Store) LookupBatchString(probes []string) []int { return s.str().lookupBatch(probes) }

// ContainsBatch reports membership for every probe, in probe order,
// against one consistent captured view.
func (s *Store) ContainsBatch(probes []uint64) []bool { return s.u64().containsBatch(probes) }

// ContainsBatchString reports membership for every probe, in probe order,
// against one consistent captured view, like ContainsBatch.
func (s *Store) ContainsBatchString(probes []string) []bool {
	return s.str().containsBatch(probes)
}
