// Package serve is the concurrent serving layer over the learned index: a
// store built for the read-heavy traffic the paper targets (§3.1 frames
// learned range indexes as in-memory serving structures; the ROADMAP's
// north star is sharding + batching + concurrency on top of them).
//
// # Architecture
//
// Every Store is the storage engine of internal/storage: learned segments —
// each a sorted key array (for string keys a core.StringIndex, the same
// plan over the keys' 8-byte prefixes plus the dictionary that holds the
// keys) with its compiled inference plan (core.Plan) — published as one
// atomically swapped list that readers load without a lock. A persistent
// store (Options.Dir set) runs the engine on the real filesystem; an
// in-memory store runs the same engine on vfs.Discard, a filesystem that
// writes nowhere, so its log and segment files cost an encode and keep
// nothing. One insert path, one drain, one rank kernel and one scan serve
// both.
//
// A store's key mode is fixed at construction, and the engine is its one
// key-mode seam: each typed Store method calls the engine method of its
// mode, and one of the other mode panics there.
//
// A batch read hands the whole batch, in the order it arrived, to the
// engine's rank kernel: one captured segment list, a fence test per
// (probe, segment), and core's batch kernel over the pairs that are left.
// The batch is never sorted or cut into per-segment runs: the model has
// already narrowed each probe to a window of a few cache lines, so what is
// left to buy on a key array larger than cache is memory-level
// parallelism, and one lockstep search across all 64 probes keeps every
// miss in flight together. Answers land in probe order; there is nothing
// to un-permute and no scratch to pool.
//
// Inserts append to the engine's write-ahead log and its pending list.
// Once MergeThreshold keys are pending the engine drains them — sort,
// dedup against the served segments, merge into its resident run, retrain
// off the hot path, and atomically publish the new segment list (classic
// read-copy-update) — and writes the run out as a segment every 64k
// logged keys, at Flush and at Close; background size-tiered compaction
// keeps the list short.
//
// # Consistency model
//
//   - Reads (Lookup, Contains, LookupBatch, ContainsBatch, Len) are
//     lock-free and see the latest *published* segment list. A read never
//     blocks on, nor is torn by, a concurrent drain, flush or compaction.
//   - Inserts become visible only when they are drained — after the
//     engine's drain at MergeThreshold pending keys (bounded staleness of
//     one drain) or a synchronous Flush, which acts as a visibility
//     barrier for every insert that returned before it.
//   - The store has set semantics: duplicate inserts and re-inserts of
//     present keys are absorbed at drain time, so Len counts distinct
//     committed keys exactly.
//   - Positions returned by Lookup/LookupBatch are global lower-bound
//     positions over one captured segment list (segments hold disjoint key
//     sets, so a position is an exact sum). Concurrent drains may shift
//     positions between calls, but within a single call every position is
//     consistent with the captured view.
//   - Range queries (Scan, ScanBatch, CountRange — see scan.go) have a
//     *stronger* visibility rule than point reads: they observe every
//     Insert that returned before the call, including still-pending ones,
//     via a loss-free capture of the pending and in-flight keys before the
//     segment list; an open scan is then fully isolated from later
//     mutations.
//   - A single Store method may be called from any number of goroutines
//     concurrently with any other, including Insert, Flush, and Close.
//     This package is the supported concurrent entry point.
//
// # Persistence
//
// With Options.Dir set (use Open, which can fail) the engine's files live
// under that directory: every Insert appends to the write-ahead log, Sync
// acknowledges durability (fsync), a drained key is served from the
// resident run with the WAL as its durable home, and each segment file
// carries its serialized RMI, so reopening deserializes models instead of
// retraining them. Reopening after a crash serves exactly the durable
// keys: all segment files plus the intact WAL tail. I/O errors are sticky
// in the engine and surface on Sync, Flush-following-Sync, and Close.
// Without Dir nothing outlives the process: StorageStats reports false,
// Scrub has no file to verify, and ServeReplication refuses to ship.
package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/storage"
	"learnedindex/internal/vfs"
)

// Options configures a Store.
type Options struct {
	// MergeThreshold is the engine's drain threshold
	// (storage.Options.DrainKeys, default 4096): once that many inserted
	// keys are pending the engine drains them into its resident run,
	// readable at once; when they become a segment file is the engine's
	// business.
	MergeThreshold int
	// Dir, when non-empty, makes the Store persistent: a WAL plus learned
	// segment files under this directory (created if absent). Empty keeps
	// the store in memory, on vfs.Discard.
	Dir string
	// CompactFanout is how many segments of one size class, contiguous but
	// for smaller segments between them, trigger a background merge
	// (default 4).
	CompactFanout int
	// FS is the filesystem a persistent Store performs every file
	// operation on (internal/vfs). Nil means the real OS; fault-injection
	// tests swap in a vfs.FaultFS. A store without Dir runs on vfs.Discard
	// whatever FS says: it writes nowhere.
	FS vfs.FS
}

// Store is the serving layer over one storage engine. Create with New (or
// Open, which returns engine errors), release with Close.
type Store struct {
	eng    *storage.Engine
	closed atomic.Bool
	// persistent is set when the engine's files live under Options.Dir. It
	// decides only the contracts that name persistence: StorageStats'
	// bool, Scrub's no-op and ServeReplication's refusal.
	persistent bool
	// reg is the metrics registry the store shares with its engine; m holds
	// the pre-resolved handles the hot paths touch.
	reg *obs.Registry
	m   storeMetrics
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
// cost is ~1-2 atomic adds against microseconds of work. Drains, flushes
// and model health are the engine's lix_storage_*/lix_segment_* series.
type storeMetrics struct {
	lookups  *obs.Counter   // lix_serve_lookups_total: sampled estimate (+64 per sampled key)
	inserts  *obs.Counter   // lix_serve_inserts_total
	batches  *obs.Counter   // lix_serve_lookup_batches_total
	scans    *obs.Counter   // lix_serve_scans_total
	lookupNs *obs.Histogram // lix_serve_lookup_ns: sampled single-key latency
	insertNs *obs.Histogram // lix_serve_durable_insert_ns: group-commit latency
	batchNs  *obs.Histogram // lix_serve_lookup_batch_ns: sampled batch latency
	batchLen *obs.Histogram // lix_serve_lookup_batch_probes: probes per batch
	scanOpen *obs.Histogram // lix_serve_scan_open_ns: capture+seek latency
	scanKeys *obs.Histogram // lix_serve_scan_keys: keys streamed per closed scan
	sampler  *obs.Sampler   // 1-in-64 admission for paths with no key to hash
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
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
}

// New builds a Store over the initial keys (any order; duplicates are
// dropped). cfg configures every segment's RMI; leave cfg.StageSizes empty
// and every train sizes itself to its own key count — ~1k keys per leaf
// behind one sampled inner stage, so on skewed keys a lookup's median
// last-mile window is ~2^5 keys on a 1M-key segment and 2^6–2^8 on a
// 4k–64k-key one, whose edge leaves take its p99 to 2^10–2^12 (see core's
// zero-Config sizing rule). Explicit StageSizes are shared by all
// segments and all retrains, which is rarely what a growing store wants.
// New panics on an engine error; call Open to handle it instead.
func New(keys []uint64, cfg core.Config, opt Options) *Store {
	s, err := Open(keys, cfg, opt)
	if err != nil {
		panic(fmt.Sprintf("serve.New: %v (use serve.Open to handle storage errors)", err))
	}
	return s
}

// Open builds a Store like New, returning engine errors instead of
// panicking. It opens the engine — with opt.Dir set, opening (or
// recovering) the persistent one rooted there and re-serving everything
// durable from the deserialized segment models — and bulk-loads the
// initial keys (storage.Engine.BulkLoad), deduplicated against what is
// already served: written as one segment file, never logged, and durable
// when Open returns on a persistent store — a crash inside Open leaves all
// of them or none.
func Open(keys []uint64, cfg core.Config, opt Options) (*Store, error) {
	return open(keys, (*storage.Engine).BulkLoad, false, cfg, opt)
}

// NewString builds a string-keyed Store over the initial keys (any order;
// duplicates dropped), the codec twin of New. Panics on an engine error;
// use OpenString to handle it.
func NewString(keys []string, cfg core.Config, opt Options) *Store {
	s, err := OpenString(keys, cfg, opt)
	if err != nil {
		panic(fmt.Sprintf("serve.NewString: %v (use serve.OpenString to handle storage errors)", err))
	}
	return s
}

// OpenString builds a string-keyed Store like NewString, returning engine
// errors instead of panicking: the engine in string mode — v2 segment
// files, string WAL — re-serving, with opt.Dir set, everything durable
// from the deserialized codec indexes, and the initial keys bulk-loaded as
// one v2 segment, as Open does.
func OpenString(keys []string, cfg core.Config, opt Options) (*Store, error) {
	return open(keys, (*storage.Engine).BulkLoadStrings, true, cfg, opt)
}

// open is Open and OpenString: the engine in the key mode strKeys names,
// bulk-loaded with keys.
func open[K any](keys []K, bulkLoad func(*storage.Engine, []K) error, strKeys bool, cfg core.Config, opt Options) (*Store, error) {
	s, err := openEngine(strKeys, cfg, opt)
	if err != nil {
		return nil, err
	}
	if err := bulkLoad(s.eng, keys); err != nil {
		s.eng.Close()
		return nil, err
	}
	return s, nil
}

// openEngine opens (or recovers) the engine in the key mode strKeys names —
// rooted at opt.Dir, or on vfs.Discard without it — and returns the Store
// over it, metrics wired: the shared prologue of open and openFollower.
// The store starts no goroutine of its own: the engine drains itself at
// the merge threshold.
func openEngine(strKeys bool, cfg core.Config, opt Options) (*Store, error) {
	thresh := opt.MergeThreshold
	if thresh <= 0 {
		thresh = 4096
	}
	fs := opt.FS
	if opt.Dir == "" {
		fs = vfs.Discard
	}
	reg := obs.NewRegistry()
	eng, err := storage.Open(opt.Dir, storage.Options{
		Config:        cfg,
		CompactFanout: opt.CompactFanout,
		DrainKeys:     thresh,
		StringKeys:    strKeys,
		Reg:           reg,
		FS:            fs,
	})
	if err != nil {
		return nil, err
	}
	return &Store{eng: eng, persistent: opt.Dir != "", reg: reg, m: newStoreMetrics(reg)}, nil
}

// admitInsert counts one Insert or InsertString; a follower store refuses
// it.
func (s *Store) admitInsert() {
	if s.repl.follower != nil {
		panic("serve: insert on a follower store (writes go to the primary)")
	}
	s.m.inserts.Inc()
}

// Insert appends a key to the engine's WAL (durable at the next Sync on a
// persistent Store) and its pending list. The key becomes visible to
// readers at the next drain — the engine's own, once MergeThreshold keys
// are pending, or Flush. A write error is sticky in the engine and
// surfaces on Sync/Flush/Close.
func (s *Store) Insert(key uint64) {
	s.admitInsert()
	s.eng.Append(key) // errors are sticky; surfaced by Sync/Flush/Close
}

// InsertString is Insert in the codec domain, with the same visibility
// contract (readable at the next drain or Flush; durable on a persistent
// store at the next Sync).
func (s *Store) InsertString(key string) {
	s.admitInsert()
	s.eng.AppendString(key) // errors are sticky; surfaced by Sync/Flush/Close
}

// InsertDurable inserts keys and returns once they are crash-durable: the
// batch rides the engine's group-commit plane (a cohort of concurrent
// InsertDurable callers shares one WAL frame and one fsync), equivalent to
// Insert-per-key followed by Sync but without each caller paying its own
// disk flush. Like Insert, the keys become readable at the next drain or
// Flush. On an in-memory Store the commit reaches vfs.Discard: there is
// nothing to wait for.
func (s *Store) InsertDurable(keys ...uint64) error {
	return insertDurable(s, (*storage.Engine).CommitBatch, keys)
}

// InsertDurableString inserts string keys and returns once they are
// crash-durable, riding the engine's group-commit plane like
// InsertDurable.
func (s *Store) InsertDurableString(keys ...string) error {
	return insertDurable(s, (*storage.Engine).CommitStringBatch, keys)
}

// insertDurable is InsertDurable and InsertDurableString: keys through the
// engine's group-commit plane by the method expression commit, timed into
// lix_serve_durable_insert_ns.
func insertDurable[K any](s *Store, commit func(*storage.Engine, []K) error, keys []K) error {
	if s.repl.follower != nil {
		return ErrFollowerStore
	}
	s.m.inserts.Add(int64(len(keys)))
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	if err := commit(s.eng, keys); err != nil {
		return err
	}
	if obs.Enabled {
		s.m.insertNs.ObserveDuration(time.Since(start))
	}
	return nil
}

// Flush is a visibility barrier making all previously returned Inserts
// readable: an engine Flush, so every key inserted so far, the background
// drains' resident run included, lands in one segment — on a persistent
// Store an fsynced file, after which the WAL is trimmed.
func (s *Store) Flush() {
	s.eng.Flush() // errors are sticky; surfaced by Sync/Close
}

// Sync is the durability barrier of a persistent Store: when it returns
// nil, every Insert that returned before the call survives a crash (WAL
// fsync acknowledgement). It also surfaces any sticky engine write error.
// On an in-memory Store there is nothing to acknowledge. On a follower
// store it returns ErrFollowerStore: there is nothing local to make
// durable, because every local write was refused.
func (s *Store) Sync() error {
	if s.repl.follower != nil {
		return ErrFollowerStore
	}
	return s.eng.Sync()
}

// Close severs replication, flushes everything pending, releases the
// engine, and reports any sticky write error. Safe to call more than
// once; reads keep answering from the last published segment list, but
// the store takes no write afterwards.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.closeRepl()
	return s.eng.Close()
}

// Lookup returns the global lower-bound position of key over the committed
// view: the index of the first committed key >= key. Allocation-free: it
// loads the segment list once, and the position is the exact sum of
// per-segment model lookups (segments hold disjoint key sets).
//
// Metrics on this path are fully sampled: an unsampled call pays one
// multiply (obs.SampleKey), a 1-in-64 sampled call additionally times
// itself into lix_serve_lookup_ns and bumps lix_serve_lookups_total by 64
// — the counter is a sampled estimate, not an exact call count.
func (s *Store) Lookup(key uint64) int {
	if obs.SampleKey(key) {
		return lookupSampled(s, (*storage.Engine).Lookup, key)
	}
	return s.eng.Lookup(key)
}

// LookupString returns the global lower-bound position of key over the
// committed view in codec (byte) order: the index of the first committed
// key >= key. Metrics are 1-in-64 sampled like Lookup, but through the
// store's shared Sampler — a string key has no cheap hash to slice — so
// an unsampled call pays one sharded atomic add.
func (s *Store) LookupString(key string) int {
	if s.m.sampler.Tick() {
		return lookupSampled(s, (*storage.Engine).LookupString, key)
	}
	return s.eng.LookupString(key)
}

// lookupSampled is a sampled Lookup or LookupString: it bumps
// lix_serve_lookups_total by 64 and times the engine's lookup into
// lix_serve_lookup_ns.
func lookupSampled[K any](s *Store, lookup func(*storage.Engine, K) int, key K) int {
	s.m.lookups.Add(64)
	if obs.Enabled {
		start := time.Now()
		pos := lookup(s.eng, key)
		s.m.lookupNs.ObserveDuration(time.Since(start))
		return pos
	}
	return lookup(s.eng, key)
}

// Contains reports whether key is committed: each segment whose fence
// holds key ranks it through its model, and the key at that position
// answers.
func (s *Store) Contains(key uint64) bool { return s.eng.Contains(key) }

// ContainsString reports whether a string key is committed.
func (s *Store) ContainsString(key string) bool { return s.eng.ContainsString(key) }

// Len returns the number of distinct committed keys.
func (s *Store) Len() int { return s.eng.Len() }

// Pending returns the number of pending (not yet visible) inserts,
// counting duplicates that a drain would absorb.
func (s *Store) Pending() int { return s.eng.PendingLen() }

// Merges returns how many segment-list publications have happened: engine
// drains and flushes, the initial bulk load included.
func (s *Store) Merges() int {
	st := s.eng.Stats()
	return st.Drains + st.Flushes
}

// StorageStats returns the disk engine's statistics and true when the
// Store is persistent; the zero Stats and false otherwise. Stats is the
// fixed accounting view carved out of the same metrics registry Metrics
// exposes — the counters agree with the lix_storage_* series by
// construction — and it is read consistently: a Stats racing a flush
// never shows a segment before the flush that produced it.
func (s *Store) StorageStats() (storage.Stats, bool) {
	if !s.persistent {
		return storage.Stats{}, false
	}
	return s.eng.Stats(), true
}

// Health reports the persistent engine's failure state and the error that
// caused it: storage.HealthOK (nil error) on full service, HealthDegraded
// when the segment plane failed and the store went read-only, and
// HealthFailed when the commit plane failed and the engine is fail-stop
// (see the storage package's failure model). An in-memory Store's
// filesystem never fails, so it stays HealthOK. Reads keep serving in
// every state.
func (s *Store) Health() (storage.Health, error) { return s.eng.Health() }

// Scrub re-verifies every live segment file's checksum on a persistent
// Store, rewriting any corrupt file from the in-memory image, and reports
// how many segments were checked and healed. A no-op (0, 0, nil) on an
// in-memory Store.
func (s *Store) Scrub() (checked, healed int, err error) {
	if !s.persistent {
		return 0, 0, nil
	}
	return s.eng.Scrub()
}

// Metrics returns a point-in-time snapshot of every metric the Store and
// its storage engine publish: traffic counters, latency/size histograms,
// and the engine's WAL, drain, flush, compaction and per-segment
// model-health series. Safe to call concurrently with any other Store
// method; serialize with Snapshot.WritePrometheus or Snapshot.WriteJSON.
func (s *Store) Metrics() *obs.Snapshot { return s.reg.Snapshot() }

// Registry exposes the Store's metrics registry so embedders can register
// their own metrics or collectors on the same export plane.
func (s *Store) Registry() *obs.Registry { return s.reg }

// StringKeys reports the store's key mode: true for a NewString/OpenString
// store (string methods valid), false for a uint64 store. Embedders that
// front the store generically — the network server, for one — use it to
// pick the right method family instead of guessing and panicking.
func (s *Store) StringKeys() bool { return s.eng.StringKeys() }

// LookupBatch answers Lookup for every probe, in probe order, against one
// consistent captured view. The batch is neither sorted nor split: the
// engine's rank kernel fences every probe against every segment of one
// captured list and runs the in-fence (probe, segment) pairs through core's
// batch kernel together, so one lockstep search keeps the misses of every
// probe in flight at once, and the answers land in probe order with
// nothing to un-permute.
func (s *Store) LookupBatch(probes []uint64) []int {
	return lookupBatch(s, (*storage.Engine).LookupBatch, probes)
}

// LookupBatchString is LookupBatch for a string-keyed store: every probe,
// in probe order, against one consistent captured view, through the
// engine's rank kernel over one captured segment list, counted in the same
// batch metrics.
func (s *Store) LookupBatchString(probes []string) []int {
	return lookupBatch(s, (*storage.Engine).LookupBatchString, probes)
}

// lookupBatch is LookupBatch and LookupBatchString, through the method
// expression rank. Per-batch metrics: two sharded atomic adds (batch count
// + sampler tick) plus one histogram add — amortized over the whole batch,
// which is what keeps the instrumented build within the <3% overhead gate.
// Latency is timed only on 1-in-64 sampled batches.
func lookupBatch[K any](s *Store, rank func(*storage.Engine, []K, []int), probes []K) []int {
	s.m.batches.Inc()
	s.m.batchLen.Observe(uint64(len(probes)))
	sampled := obs.Enabled && s.m.sampler.Tick()
	var start time.Time
	if sampled {
		start = time.Now()
	}
	out := make([]int, len(probes))
	rank(s.eng, probes, out)
	if sampled {
		s.m.batchNs.ObserveDuration(time.Since(start))
	}
	return out
}

// ContainsBatch reports membership for every probe, in probe order,
// against one consistent captured view.
func (s *Store) ContainsBatch(probes []uint64) []bool {
	out := make([]bool, len(probes))
	s.eng.ContainsBatch(probes, out)
	return out
}

// ContainsBatchString reports membership for every probe, in probe order,
// against one consistent captured view, like ContainsBatch.
func (s *Store) ContainsBatchString(probes []string) []bool {
	out := make([]bool, len(probes))
	s.eng.ContainsBatchString(probes, out)
	return out
}
