// Package learnedindex is a from-scratch Go reproduction of "The Case for
// Learned Index Structures" (Kraska, Beutel, Chi, Dean, Polyzotis — SIGMOD
// 2018): range indexes as CDF models (the Recursive Model Index), learned
// hash functions for point indexes, and learned Bloom filters for
// existence indexes.
//
// This root package is the public API: thin aliases over the internal
// implementation, so downstream users import one package. The single-index
// surface answers in *positions* over its sorted key array:
//
//	idx := learnedindex.New(sortedKeys, learnedindex.DefaultConfig(10_000))
//	pos := idx.Lookup(key)            // lower bound: index of first key >= key
//	lo, hi := idx.RangeScan(a, b)     // position range [lo, hi) of keys in [a, b)
//	// the keys themselves are sortedKeys[lo:hi] — position arithmetic only
//
// The concurrent Store adds the streaming range-query surface on top: Scan
// merges every layer a key can live in (pending inserts, the resident
// run, segments) into one ascending deduplicated stream, entered at the
// model-predicted position, and CountRange answers a learned COUNT by pure
// position arithmetic:
//
//	st := learnedindex.NewStore(keys, cfg, learnedindex.StoreOptions{})
//	it := st.Scan(a, b)               // snapshot-consistent keys in [a, b)
//	for it.Next() { use(it.Key()) }
//	it.Close()
//	n := st.CountRange(a, b)          // exact, zero iteration
//
// String keys flow through the same stack end-to-end via the
// order-preserving key codec (8-byte big-endian prefixes + a suffix
// dictionary for exact disambiguation): NewStringStore/OpenStringStore
// build a string-keyed Store whose InsertString/LookupString/ScanString
// mirror the uint64 surface in codec (byte) order, including durable
// persistence (version-2 segment files), crash recovery, and learned
// COUNT:
//
//	st := learnedindex.NewStringStore(urls, cfg, learnedindex.StoreOptions{})
//	st.InsertString("https://example.com/x")
//	st.Flush()
//	it := st.ScanString("https://a.", "https://b.") // codec-order stream
//	n := st.CountRangeString("https://a.", "https://b.")
//
// See the examples/ directory for runnable scenarios and cmd/lix-bench for
// the paper's full evaluation suite.
package learnedindex

import (
	"learnedindex/internal/bloom"
	"learnedindex/internal/core"
	"learnedindex/internal/hashmap"
	"learnedindex/internal/keycodec"
	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
	"learnedindex/internal/serve"
	"learnedindex/internal/storage"
)

// Range index (§2–3): the Recursive Model Index.
type (
	// RMI is a recursive model index over a sorted []uint64: a hierarchy of
	// models that predicts a key's position with per-leaf min/max error
	// bounds, corrected by a local search.
	RMI = core.RMI
	// Plan is the RMI's read path: the model tree lowered into a flat,
	// devirtualized inference plan with one branchless last-mile search
	// and a lockstep batch kernel. Built automatically by New and on
	// deserialization; RMI.Lookup, Contains and RangeScan run it, and
	// RMI.Plan() returns it for batch lookups.
	Plan = core.Plan
	// Config specifies an RMI: stage-1 model family and stage sizes
	// (Algorithm 1's inputs; its hybrid threshold is StringConfig's).
	Config = core.Config
	// SearchKind names a §3.4 last-mile search strategy: StringConfig
	// selects one for a StringRMI; the uint64 RMI's Plan runs one
	// branchless search.
	SearchKind = core.SearchKind
	// TopKind selects the stage-1 model family (§3.3).
	TopKind = core.TopKind

	// StringRMI is the string-keyed RMI of §3.5 (Figure 6).
	StringRMI = core.StringRMI
	// StringConfig specifies a StringRMI.
	StringConfig = core.StringConfig
	// StringIndex is the codec-backed string index: a compiled prefix-RMI
	// plan over order-preserving 8-byte key prefixes plus a suffix
	// dictionary for exact tie-breaks inside a prefix-collision group. The
	// building block of the string-keyed Store and of version-2 segment
	// files.
	StringIndex = core.StringIndex
	// KeyDict is the codec's suffix dictionary: the exact keys, held as the
	// deduplicated prefix array plus per-key length and suffix bytes in one
	// pointer-free arena, materialized as strings only on request.
	KeyDict = keycodec.Dict
)

// Serving layer: the concurrent entry point (internal/serve).
type (
	// Store is the thread-safe serving layer over the storage engine:
	// lock-free RCU-style reads of a published segment list, inserts
	// drained and retrained in the background once MergeThreshold are
	// pending, background compaction, and batched lookups that overlap a
	// whole probe batch's cache misses in one lockstep search across every
	// segment, in probe order. See the package comment of internal/serve
	// for the consistency model. Without StoreOptions.Dir the engine runs
	// on a filesystem that writes nowhere (an in-memory store); with it
	// (open with OpenStore) the Store is persistent: WAL-backed inserts
	// with a Sync durability barrier and a group-committed InsertDurable
	// (concurrent durable writers share one WAL frame and one fsync),
	// learned segment files, and crash recovery.
	// Scan/ScanBatch stream any key range [lo, hi) snapshot-consistently
	// (see Iterator) and CountRange answers exact range counts by position
	// arithmetic — two compiled-plan lookups per segment, zero iteration.
	// ScanFrom and CountFrom are their open-ended [lo, ∞) forms, the only
	// ones that reach the maximal key.
	Store = serve.Store
	// StoreOptions sets the drain threshold and compaction fanout, and —
	// via Dir — roots the Store's engine in a directory, making it
	// persistent.
	StoreOptions = serve.Options
	// StorageStats reports a persistent Store's disk state: segments,
	// bytes, WAL size, and how many models were deserialized vs trained.
	StorageStats = storage.Stats
	// StoreHealth is a persistent Store's failure-model state, returned by
	// Store.Health(): HealthOK (full service), HealthDegraded (read-only —
	// the segment plane hit a persistent error such as ENOSPC; reads and
	// scans keep serving, writes are rejected wrapped in ErrDegraded), or
	// HealthFailed (fail-stop — the commit plane lost an fsync, so every
	// durable operation returns the sticky first cause wrapped in
	// ErrPoisoned). Health only descends; recovery is reopen.
	StoreHealth = storage.Health

	// Metrics is a point-in-time snapshot of a Store's always-on metrics
	// plane, returned by Store.Metrics(): traffic counters, latency and
	// size histograms (with Quantile/Mean/Max accessors), and the engine's
	// WAL fsync latency, group-commit cohort sizes, drain/flush/compaction
	// durations, pending keys, and per-segment observed model error
	// against the trained error bound. Serialize with WritePrometheus (text exposition
	// format) or WriteJSON; building the library with -tags noobs
	// compiles the histogram plane out (counters stay real). Serve it over
	// HTTP by calling Store.Metrics per request; the lix-server and
	// lix-repl binaries' -metrics flag starts a built-in debug listener.
	Metrics = obs.Snapshot
	// MetricsRegistry is the registry behind a Store's metrics plane
	// (Store.Registry()): embedders can hang their own counters, gauges,
	// histograms, and snapshot-time collectors off the same export plane.
	MetricsRegistry = obs.Registry
	// HistogramSnapshot is one histogram's view inside Metrics: log-bucketed
	// counts with Quantile, Mean, and Max accessors.
	HistogramSnapshot = obs.HistSnapshot

	// Iterator streams a Store.Scan: the snapshot-consistent ascending
	// deduplicated union of every layer (pending inserts, the resident run,
	// segments) over [lo, hi), merged by a k-way loser tree with
	// each source entered at its model-predicted position. Drive it with
	// Next/Key (or NextBatch), reposition with Seek, and always Close it —
	// Close releases pooled state and unpins the storage snapshot so
	// compaction can reclaim superseded segments.
	Iterator = scan.Iterator[uint64]
	// StringIterator is Iterator for a string-keyed Store's ScanString /
	// ScanStringFrom: the same loser-tree merge instantiated over strings,
	// streaming in codec (byte) order.
	StringIterator = scan.Iterator[string]
)

// Persistent-store health ladder (see StoreHealth).
const (
	HealthOK       = storage.HealthOK
	HealthDegraded = storage.HealthDegraded
	HealthFailed   = storage.HealthFailed
)

// Failure-model sentinels: errors.Is against these classifies a rejected
// durable operation on a persistent Store.
var (
	// ErrStorePoisoned wraps every error from a fail-stop (HealthFailed)
	// engine after a commit-plane fsync failure.
	ErrStorePoisoned = storage.ErrPoisoned
	// ErrStoreDegraded wraps every write rejected by a degraded
	// (read-only, HealthDegraded) engine.
	ErrStoreDegraded = storage.ErrDegraded
)

// Point index (§4): learned hash functions. They live beside the hash maps
// they plug into; no Store uses them.
type (
	// LearnedHash scales an RMI's CDF into a hash function h(K) = F(K)·M.
	LearnedHash = hashmap.LearnedHash
	// ConflictStats reports slot occupancy under a hash function (Figure 8).
	ConflictStats = hashmap.ConflictStats
)

// Existence index (§5): learned Bloom filters. They live beside the
// standard filter they replace, with their classifiers (a GRU and a hashed
// n-gram logistic model); no Store uses them.
type (
	// Classifier is a probabilistic model f(x) ∈ [0,1] over string keys.
	Classifier = bloom.Classifier
	// LearnedBloom is the classifier + overflow-filter construction (§5.1.1).
	LearnedBloom = bloom.LearnedBloom
	// ModelHashBloom is the discretized model-hash construction (§5.1.2).
	ModelHashBloom = bloom.ModelHashBloom
)

// Search strategies (§3.4).
const (
	SearchModelBiased = core.SearchModelBiased
	SearchBinary      = core.SearchBinary
	SearchQuaternary  = core.SearchQuaternary
	SearchExponential = core.SearchExponential
)

// Stage-1 model families (§3.3, §3.7.1).
const (
	TopLinear       = core.TopLinear
	TopMultivariate = core.TopMultivariate
	TopNN           = core.TopNN
)

// Constructors.
var (
	// New trains an RMI over sorted unique keys (Algorithm 1). Each
	// stage is split into contiguous key runs by bisection and fit run by
	// run on a bounded worker pool sized to GOMAXPROCS; single-CPU hosts
	// and small key sets fit on the calling goroutine.
	New = core.New
	// NewWithTrainWorkers trains like New with an explicit worker count
	// for the fit and error passes (1 = the calling goroutine alone).
	// Serialized results are identical for every count — each model folds
	// its keys in ascending order whichever worker owns it; the knob
	// exists for train-scaling benchmarks and tuning.
	NewWithTrainWorkers = core.NewWithTrainWorkers
	// DefaultConfig returns the paper's default 2-stage shape.
	DefaultConfig = core.DefaultConfig
	// NewString trains a string RMI.
	NewString = core.NewString
	// DefaultStringConfig mirrors Figure 6's learned-index rows.
	DefaultStringConfig = core.DefaultStringConfig
	// NewStore builds the concurrent serving layer, bulk-loading keys into
	// its engine; Close it when done. Panics on a storage error — prefer
	// OpenStore for persistence.
	NewStore = serve.New
	// OpenStore builds the serving layer like NewStore but returns engine
	// errors instead of panicking; with StoreOptions.Dir set it opens (or
	// crash-recovers) the persistent store rooted there, serving lookups
	// from deserialized segment models without retraining.
	OpenStore = serve.Open
	// NewStringStore builds a string-keyed Store over the key codec:
	// InsertString/LookupString/ContainsString/ScanString and friends, with
	// the same consistency model as NewStore. Panics on a storage error —
	// prefer OpenStringStore for persistence.
	NewStringStore = serve.NewString
	// OpenStringStore is NewStringStore returning engine errors; with
	// StoreOptions.Dir set the store persists string keys in version-2
	// segment files and recovers them (WAL replay included) at open.
	OpenStringStore = serve.OpenString
	// NewStringIndex trains a StringIndex over string keys (any order,
	// duplicates dropped): the single-index codec surface — Lookup answers
	// lower-bound positions in byte order, RangeScan answers [lo, hi)
	// position ranges.
	NewStringIndex = core.NewStringIndex
	// KeyPrefix is the codec's order-preserving 8-byte prefix map:
	// a < b implies KeyPrefix(a) <= KeyPrefix(b).
	KeyPrefix = keycodec.Prefix
	// CompositeKey flattens key parts into one order-preserving string
	// (tuple order = byte order), for composite keys over the codec.
	CompositeKey = keycodec.Composite
	// SplitCompositeKey inverts CompositeKey, validating the encoding.
	SplitCompositeKey = keycodec.SplitComposite
	// NewLearnedHash trains a CDF hash targeting a slot count (§4.1).
	NewLearnedHash = hashmap.NewLearnedHash
	// NewLearnedHashFromRMI reuses a trained RMI as the CDF model.
	NewLearnedHashFromRMI = hashmap.NewLearnedHashFromRMI
	// RandomHashFunc is the Murmur-style baseline hash.
	RandomHashFunc = hashmap.RandomHashFunc
	// MeasureConflicts fills a virtual table and reports occupancy.
	MeasureConflicts = hashmap.MeasureConflicts
	// NewLearnedBloom builds the §5.1.1 filter (tunes τ, sizes overflow).
	NewLearnedBloom = bloom.NewLearnedBloom
	// NewModelHashBloom builds the §5.1.2 filter.
	NewModelHashBloom = bloom.NewModelHashBloom
	// GridSearch is the LIF auto-tuner (§3.1): trains every candidate and
	// ranks by the objective.
	GridSearch = core.GridSearch
	// DefaultGrid returns the paper's §3.7.1 grid-search space.
	DefaultGrid = core.DefaultGrid
)
