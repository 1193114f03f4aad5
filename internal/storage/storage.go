// Package storage is the persistent learned-segment storage engine: the
// durability layer under the serving stack. It pairs the paper's learned
// structures with an LSM-shaped disk layout —
//
//   - a write-ahead log with length+checksum framing and a synchronous
//     Sync acknowledgement (wal.go);
//   - immutable sorted segment files, each carrying a delta-varint key
//     block plus the serialized RMI (§3) trained over it (segment.go), so
//     a cold open deserializes models instead of retraining them; the
//     model is the segment's existence index too (§5), so no segment
//     carries a Bloom filter;
//   - crash recovery that replays the intact WAL tail over the newest
//     segments, truncates torn records, and garbage-collects segment
//     files orphaned by a crashed compaction;
//   - background size-tiered compaction that merges, smallest size class
//     and oldest run first, a contiguous run holding CompactFanout segments
//     of one class plus any smaller stragglers between them (pickRun), and
//     deletes the inputs — so a read visits O(log n) segments.
//
// # Consistency and durability model
//
// Append buffers keys in the WAL and an in-memory pending list; Sync makes
// every prior Append crash-durable (fsync ack); Commit does both in one
// group-committed call — concurrent committers form a cohort whose keys
// are encoded as a single WAL frame and covered by a single fsync, so
// synced-insert throughput scales with the committer count instead of
// paying one disk flush each.
//
// Served and on disk are separate steps. Keys become *served* (visible to
// Contains/Lookup/Len) at Drain, which merges the novel pending keys into
// the resident run — one sorted, trained segment with no file, always last
// in the list, whose keys' durable home is still the WAL — or at Flush,
// which writes resident and pending keys as one segment file and only then
// trims the WAL; a Drain that finds spillKeys keys in the log (drained
// since the last rotation plus pending, duplicates counted) is a Flush, so
// the log and the replay a crash pays stay bounded whatever the run holds.
// When a Drain runs is decided here too: an engine opened with
// Options.DrainKeys drains itself once that many keys are pending; one
// opened without it drains only when its caller asks. A drained key is
// durable before it is served (the drain waits out the group-commit
// barrier). After a crash, recovery re-serves exactly the keys
// that were durable: all segment files plus every intact WAL record.
// Because drains and flushes drop pending keys already present in older
// segments, live segments always hold disjoint key sets, which is what
// makes Len and global lower-bound Lookup exact sums.
//
// Reads (Contains, ContainsBatch, Lookup, LookupBatch, Len and their
// string twins) are lock-free against an atomically published segment
// list, and a batch answers every probe against the one list it captured.
// Two segment-major kernels, each written once for both key kinds
// (contains.go), do the batched work: every membership read and the flush
// dedupe share one, every batched rank read the other — probes in any
// order, fenced per segment, and only the in-fence (probe, segment) pairs
// run a model, together through core's batch kernel. Lookup, LookupString
// and the learned counts (CountRange and its string twin, over a pinned
// snapshot) run one per-key loop, also written once (rankIn, countRange):
// the same fence, then one scalar plan or codec-index lookup per in-fence
// segment. rankIn is the reference the oracles compare the batched rank
// against. Scan and ScanString stream a range out of a pinned snapshot
// through one merge of its delta and a cursor per in-fence segment
// (scanSnapshot), isolated from every later write. Writes (Append, Sync, Drain, Flush) are serialized by an
// internal mutex and may be called concurrently with reads and with
// background compaction. I/O errors latch: once a write fails, the error
// is sticky and returned by every subsequent Append/Sync/Flush/Close so an
// ack can never be trusted past a failure.
package storage

import (
	"cmp"
	"fmt"
	"log"
	"math/bits"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
	"learnedindex/internal/vfs"
)

// Options configures an Engine.
type Options struct {
	// Config is the RMI configuration used for every trained segment
	// index. Leave StageSizes empty and each segment sizes its own stages
	// (core's zero-Config rule).
	Config core.Config
	// CompactFanout is how many segments of one size class, contiguous but
	// for smaller segments between them, trigger a merge (default 4;
	// minimum 2). See pickRun.
	CompactFanout int
	// NoCompactor disables the background compaction goroutine. Compact
	// can still be called explicitly.
	NoCompactor bool
	// DrainKeys, when positive, makes the engine drain itself: an append or
	// commit that leaves at least this many keys pending wakes a background
	// drainer, which runs Drain. Zero leaves every drain to the caller
	// (Drain, Flush, Close).
	DrainKeys int
	// StringKeys switches the engine to the string-keyed mode of the key
	// codec (internal/keycodec): appends/commits take strings, segments are
	// written in the version-2 format, and reads go through the prefix plan
	// plus suffix dictionary. An engine (and its directory) is permanently
	// one mode; Open fails rather than misread a directory of the other
	// kind, and calling a uint64 method on a string engine (or vice versa)
	// panics.
	StringKeys bool
	// Reg is the metrics registry the engine publishes into (internal/obs):
	// its accounting counters, WAL/flush/compaction histograms, and the
	// snapshot-time collector for segment-level series all live there. Nil
	// means the engine owns a private registry, reachable via Registry().
	Reg *obs.Registry
	// FS is the filesystem the engine performs every file operation on
	// (internal/vfs). Nil means the real OS; fault-injection tests swap in
	// a vfs.FaultFS to drive the failure model deterministically.
	FS vfs.FS
}

func (o Options) withDefaults() Options {
	if o.CompactFanout < 2 {
		o.CompactFanout = 4
	}
	if o.FS == nil {
		o.FS = vfs.OS
	}
	return o
}

// Stats is a point-in-time snapshot of engine state for reports: a fixed
// view over the engine's registry metrics (Registry/Metrics expose the
// full plane). The segment list and the flush/compaction counters are read
// under one acquisition of the publication lock, so a Stats taken
// concurrently with a Flush never shows a published segment before the
// flush that produced it is counted.
type Stats struct {
	Segments      int
	Keys          int
	DiskBytes     int64
	WALBytes      int64
	PendingKeys   int
	ModelsLoaded  int // RMIs deserialized from disk at Open
	ModelsTrained int // RMIs trained by flushes and compactions
	Flushes       int // segment files written by Flush (a Drain that reached the spill size is one)
	Drains        int // resident-run rebuilds by Drain: served, not yet a file
	Compactions   int
	WALSyncs      int // fsyncs issued by the commit plane
	Commits       int // Commit calls acknowledged (group-committed)
}

// Engine is the disk-backed store. Open one per directory; Close releases
// it. All methods are safe for concurrent use.
type Engine struct {
	dir  string
	opts Options

	// mu serializes the write plane: the active WAL buffer, the keys in
	// flight (plane), and the sticky error. It is held only for cheap
	// operations — appends, frame encodes, and the flush freeze step —
	// never across segment training, and never across a group-commit
	// leader's fsync (the leader drops mu for the disk wait so appends and
	// cohort enqueues keep flowing). walSeq changes only inside spill, under
	// flushMu as well, so spill may read it before it takes mu.
	mu     sync.Mutex
	wal    *wal
	walSeq uint64
	// plane holds the keys in flight — pending, frozen by a drain or flush,
	// queued in the commit cohort — as the writePlane of the engine's key
	// mode, fixed at Open (writeplane.go).
	plane keyPlane
	// pendingLen mirrors the pending list's length, stored wherever mu is
	// held to change it, so PendingLen — the drainer's threshold test —
	// takes no lock, and reads of it under mu are exact.
	pendingLen atomic.Int64
	// err is the fail-stop poison latch: a commit-plane failure sets it
	// (wrapped in ErrPoisoned) and every later durable operation returns
	// it. degradedCause is the read-only latch of the segment plane
	// (wrapped in ErrDegraded): writes refuse, reads keep serving.
	// healthWord mirrors the two for lock-free observation (see health.go).
	err           error
	degradedCause error

	// Group-commit state, guarded by mu. appendSeq counts accepted write
	// calls (Append, AppendBatch, Commit enqueue); durableSeq is the
	// highest appendSeq covered by a completed fsync. A Sync/Commit caller
	// captures its target and waits on syncCond until durableSeq passes it;
	// the first waiter with an uncovered target elects itself leader,
	// encodes every queued cohort batch (the plane's cohort) into ONE frame,
	// flushes, and fsyncs once for everyone — tickets are woken by the
	// broadcast.
	appendSeq  uint64
	durableSeq uint64
	syncing    bool
	syncCond   *sync.Cond
	// flushMu serializes whole drains and flushes (freeze → train → commit
	// → retire), keeping concurrent calls from racing each other — only they
	// replace the resident run — while mu stays free for appends during the
	// heavy middle part.
	flushMu sync.Mutex
	// drained counts the keys drains have frozen since the last log
	// rotation, duplicates included: what a crash now would replay, and what
	// the spill test is made on. Guarded by flushMu.
	drained int

	// segMu serializes segment-list mutation (drain and flush publish,
	// compaction swap); readers go through the atomic pointer, never the
	// lock. The resident run, when there is one, is the list's last entry.
	segMu sync.Mutex
	segs  atomic.Pointer[[]*segment]
	// compactMu serializes whole compaction rounds: the background
	// compactor and explicit Compact calls must not pick overlapping runs.
	compactMu sync.Mutex

	nextSeq   uint64
	compactCh chan struct{}
	drainCh   chan struct{}
	quit      chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool

	fs         vfs.FS
	healthWord atomic.Int32 // Health, mirrored from err/degradedCause
	quarCount  atomic.Int64 // *.quarantine files currently in dir

	// Replication export plane, guarded by mu (see repl.go). replSink
	// receives frames as their fsync lands; replNext is the last stream
	// sequence assigned at encode time; replPending holds frames encoded
	// but not yet covered by an fsync; replTail holds durable frames not
	// yet covered by a published segment; replDurable is the durable
	// horizon (highest promoted sequence).
	replSink    ReplSink
	replNext    uint64
	replPending []ReplFrame
	replTail    []ReplFrame
	replDurable uint64

	reg *obs.Registry
	m   engineMetrics
}

// engineMetrics is the engine's handle bundle into its registry. The
// counters ARE the engine's accounting (Stats reads them back), so they
// exist in every build; the histograms compile to no-ops under -tags
// noobs.
type engineMetrics struct {
	modelsLoaded  *obs.Counter // RMIs deserialized from disk at Open
	modelsTrained *obs.Counter // RMIs trained by flushes and compactions
	flushes       *obs.Counter // segment files written by Flush; bumped with publication (see Stats)
	drains        *obs.Counter // resident-run rebuilds by Drain; bumped with publication
	compactions   *obs.Counter
	walSyncs      *obs.Counter // fsyncs issued by the commit plane
	commits       *obs.Counter // Commit calls acknowledged (group-committed)
	zombies       *obs.Gauge   // compacted-away segments awaiting last unpin

	ioErrors          *obs.Counter // best-effort I/O failures, see countIOErr
	ioRetries         *obs.Counter // segment-plane writes retried after a transient error
	backpressureWaits *obs.Counter // writer naps taken under compaction-debt backpressure
	quarantined       *obs.Counter // segments renamed *.quarantine at open
	scrubPasses       *obs.Counter // completed Scrub sweeps
	scrubHeals        *obs.Counter // corrupt segment files rewritten from memory

	fsyncNs       *obs.Histogram // latency of each commit-plane fsync
	cohortCommits *obs.Histogram // Commit batches covered per cohort drain
	flushNs       *obs.Histogram // freeze→train→commit→publish, whole flush
	drainNs       *obs.Histogram // freeze→barrier→merge→train→publish, whole drain
	compactNs     *obs.Histogram // merge→train→publish, one compaction
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		modelsLoaded:  reg.Counter("lix_storage_models_loaded_total"),
		modelsTrained: reg.Counter("lix_storage_models_trained_total"),
		flushes:       reg.Counter("lix_storage_flushes_total"),
		drains:        reg.Counter("lix_storage_drains_total"),
		compactions:   reg.Counter("lix_storage_compactions_total"),
		walSyncs:      reg.Counter("lix_storage_wal_syncs_total"),
		commits:       reg.Counter("lix_storage_commits_total"),
		zombies:       reg.Gauge("lix_storage_zombie_segments"),

		ioErrors:          reg.Counter("lix_storage_io_errors_total"),
		ioRetries:         reg.Counter("lix_storage_io_retries_total"),
		backpressureWaits: reg.Counter("lix_storage_backpressure_waits_total"),
		quarantined:       reg.Counter("lix_segments_quarantined_total"),
		scrubPasses:       reg.Counter("lix_storage_scrub_passes_total"),
		scrubHeals:        reg.Counter("lix_storage_scrub_heals_total"),

		fsyncNs:       reg.Histogram("lix_wal_fsync_ns"),
		cohortCommits: reg.Histogram("lix_wal_cohort_commits"),
		flushNs:       reg.Histogram("lix_storage_flush_ns"),
		drainNs:       reg.Histogram("lix_storage_drain_ns"),
		compactNs:     reg.Histogram("lix_storage_compaction_ns"),
	}
}

// Open recovers (or creates) the engine rooted at dir: load and validate
// every committed segment, drop compaction leftovers, replay the WAL tail,
// truncate torn records, and materialize any replayed keys as a fresh
// segment so the WAL starts empty. After a clean shutdown this deserializes
// every model and trains none.
func Open(dir string, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &Engine{
		dir:       dir,
		opts:      opts,
		fs:        opts.FS,
		compactCh: make(chan struct{}, 1),
		drainCh:   make(chan struct{}, 1),
		quit:      make(chan struct{}),
	}
	e.reg = opts.Reg
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.m = newEngineMetrics(e.reg)
	e.reg.RegisterCollector(e.collect)
	e.syncCond = sync.NewCond(&e.mu)
	e.plane = newWritePlane(e)
	segs, nextSeq, err := e.loadSegments()
	if err != nil {
		return nil, err
	}
	// One directory, one key mode, forever: refuse to serve segments of the
	// other kind rather than misread them.
	for _, s := range segs {
		if s.isString() != opts.StringKeys {
			return nil, fmt.Errorf("storage: %s holds %s segments but the engine was opened with StringKeys=%v",
				dir, modeName(s.isString()), opts.StringKeys)
		}
	}
	e.m.modelsLoaded.Add(int64(len(segs)))
	e.segs.Store(&segs)
	e.nextSeq = nextSeq

	// Replay every log in sequence order (several exist only when a crash
	// interrupted a flush between freeze and retire), truncating the torn
	// tail of each; then materialize the recovered keys over the newest
	// segments and retire the replayed files. Ordering is crash-safe: the
	// segment is committed before any log is deleted, and re-replaying an
	// already-materialized log just deduplicates.
	walSeqs, walPaths, otherKind, err := scanWALFiles(e.fs, dir, opts.StringKeys)
	if err != nil {
		return nil, err
	}
	if otherKind > 0 {
		return nil, fmt.Errorf("storage: %s holds %d WAL file(s) of the other key mode (engine opened with StringKeys=%v)",
			dir, otherKind, opts.StringKeys)
	}
	if err := e.plane.recoverLogs(walPaths); err != nil {
		return nil, err
	}
	for _, p := range walPaths {
		// Best-effort: a log that survives its own retirement is replayed
		// again at the next open and deduplicated away.
		e.countIOErr("remove replayed WAL", e.fs.Remove(p))
	}
	if len(walSeqs) > 0 {
		e.walSeq = walSeqs[len(walSeqs)-1] + 1
	}
	w, err := e.createWAL(e.walSeq)
	if err != nil {
		return nil, err
	}
	e.wal = w
	if !opts.NoCompactor {
		// Deliberately not kicked here: a cold open must train nothing
		// (the "deserialized models only" contract above), so any tier
		// left over-full by the previous process waits for the next flush
		// to trigger its merge.
		e.wg.Add(1)
		go e.compactor()
	}
	if opts.DrainKeys > 0 {
		e.wg.Add(1)
		go e.drainer()
	}
	return e, nil
}

// quarantineSuffix marks a segment file that failed its checksum or
// decode at open: the file is renamed aside (evidence preserved, never
// re-adopted) and serving continues without it.
const quarantineSuffix = ".quarantine"

// segCand is one committed segment file found by the open-time scan.
type segCand struct {
	lo, hi uint64
	path   string
}

// selectMaximalSegments picks the containment-maximal candidates: a range
// strictly contained in another's is an obsolete compaction input that
// outlived its replacement across a crash. Contained candidates are NOT
// deleted here — their container might fail to open and be quarantined,
// in which case they are the only surviving copy of its keys and get
// re-selected on the retry pass.
func selectMaximalSegments(cands []segCand) ([]segCand, error) {
	// Widest range first within a seqLo, so a contained range always meets
	// its container before being kept.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lo != cands[j].lo {
			return cands[i].lo < cands[j].lo
		}
		return cands[i].hi > cands[j].hi
	})
	var kept []segCand
	for _, c := range cands {
		if n := len(kept); n > 0 {
			last := kept[n-1]
			if c.lo >= last.lo && c.hi <= last.hi {
				continue // obsolete compaction input (pending its container opening)
			}
			if c.lo <= last.hi {
				return nil, fmt.Errorf("storage: segments %s and %s overlap without containment",
					filepath.Base(last.path), filepath.Base(c.path))
			}
		}
		kept = append(kept, c)
	}
	return kept, nil
}

// loadSegments scans the engine directory for committed segments, removes
// stale temp files, quarantines any segment that fails its checksum or
// decode (renamed *.quarantine, skipped, counted), garbage-collects
// obsolete compaction inputs, and returns the live set sorted by
// sequence. The sequence horizon advances past quarantined files too, so
// a quarantined range's filename is never minted again.
func (e *Engine) loadSegments() ([]*segment, uint64, error) {
	entries, err := e.fs.ReadDir(e.dir)
	if err != nil {
		return nil, 0, err
	}
	var cands []segCand
	nextSeq := uint64(0)
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Never renamed => never committed; best-effort sweep.
			e.countIOErr("remove stale temp", e.fs.Remove(filepath.Join(e.dir, name)))
			continue
		}
		if strings.HasSuffix(name, quarantineSuffix) {
			// A previously quarantined file: never re-adopted, but its range
			// still fences the sequence space.
			if _, hi, ok := parseSegmentFileName(strings.TrimSuffix(name, quarantineSuffix)); ok && hi+1 > nextSeq {
				nextSeq = hi + 1
			}
			e.quarCount.Add(1)
			continue
		}
		lo, hi, ok := parseSegmentFileName(name)
		if !ok {
			continue
		}
		cands = append(cands, segCand{lo, hi, filepath.Join(e.dir, name)})
	}
	for {
		kept, err := selectMaximalSegments(cands)
		if err != nil {
			return nil, 0, err
		}
		segs := make([]*segment, len(kept))
		bad := -1
		var badErr error
		for i, c := range kept {
			s, err := openSegmentFile(e.fs, c.path, c.lo, c.hi)
			if err != nil {
				bad, badErr = i, err
				break
			}
			segs[i] = s
		}
		if bad < 0 {
			// Every container opened: the contained candidates are now
			// provably redundant and can go.
			liveSet := make(map[string]bool, len(kept))
			for _, c := range kept {
				liveSet[c.path] = true
				if c.hi+1 > nextSeq {
					nextSeq = c.hi + 1
				}
			}
			for _, c := range cands {
				if !liveSet[c.path] {
					e.countIOErr("remove obsolete compaction input", e.fs.Remove(c.path))
				}
			}
			return segs, nextSeq, nil
		}
		// Quarantine the corrupt file and retry selection without it: any
		// inputs it contained are still on disk (deletion above is deferred
		// until every container opens) and take over serving its keys. If
		// the quarantine rename itself fails, opening cannot make progress
		// — surface the corruption.
		c := kept[bad]
		if rerr := e.fs.Rename(c.path, c.path+quarantineSuffix); rerr != nil {
			return nil, 0, fmt.Errorf("storage: quarantining %s: %w (corrupt: %w)", filepath.Base(c.path), rerr, badErr)
		}
		log.Printf("storage: quarantined corrupt segment %s: %v", c.path, badErr)
		e.m.quarantined.Inc()
		e.quarCount.Add(1)
		if c.hi+1 > nextSeq {
			nextSeq = c.hi + 1
		}
		cands = slices.DeleteFunc(cands, func(x segCand) bool { return x.path == c.path })
	}
}

// Append logs keys (as one or more WAL records) and buffers them as
// pending. They are durable after the next Sync and served after the next
// Drain or Flush.
func (e *Engine) Append(keys ...uint64) error {
	return e.AppendBatch(keys)
}

// AppendBatch is Append without variadic sugar: the bulk-ingest fast
// path. Records are encoded in a pooled scratch buffer and, with no
// replication sink installed, the keys are copied nowhere but the pending
// list: a steady-state append allocates twice — the scratch buffer's
// return to its pool and the one-element batch list the record encoder
// takes — plus the pending list's amortized growth.
func (e *Engine) AppendBatch(keys []uint64) error { return planeOf[uint64](e).append(keys) }

// Sync acknowledges durability: when it returns nil, every key appended
// before the call survives a crash. Concurrent Sync callers group-commit:
// the first uncovered waiter leads one fsync for the whole cohort instead
// of each caller paying its own disk flush.
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.waitDurable(e.appendSeq)
}

// Commit durably inserts keys in one call: the group-commit hot path.
// The batch joins the current commit cohort; a leader encodes the whole
// cohort as ONE WAL frame and performs ONE fsync for it, waking every
// ticket when the flush lands. When Commit returns nil the keys survive
// any crash (they are served after the next Drain or Flush, like Append). The keys
// slice must not be mutated until Commit returns.
func (e *Engine) Commit(keys ...uint64) error {
	return e.CommitBatch(keys)
}

// AppendString logs string keys and buffers them as pending: the string
// engine's Append. Durable after the next Sync, served after the next
// Drain or Flush.
func (e *Engine) AppendString(keys ...string) error {
	return e.AppendStringBatch(keys)
}

// AppendStringBatch is AppendString without variadic sugar. Records chunk
// by encoded size (strings are variable-width) instead of key count.
func (e *Engine) AppendStringBatch(keys []string) error { return planeOf[string](e).append(keys) }

// CommitString durably inserts string keys in one group-committed call —
// the string twin of Commit. The keys slice must not be mutated until
// CommitString returns.
func (e *Engine) CommitString(keys ...string) error {
	return e.CommitStringBatch(keys)
}

// CommitStringBatch is CommitString without variadic sugar.
func (e *Engine) CommitStringBatch(keys []string) error { return planeOf[string](e).commit(keys) }

// CommitBatch is Commit without variadic sugar.
func (e *Engine) CommitBatch(keys []uint64) error { return planeOf[uint64](e).commit(keys) }

// waitDurable blocks until every write accepted at or before target is
// crash-durable, electing a group-commit leader as needed. Called with mu
// held; returns with mu held. The leader encodes the queued cohort, pushes
// the WAL buffer to the OS, then drops mu for the fsync itself so the
// write plane keeps accepting work during the disk wait; completion wakes
// every ticket via the condvar broadcast.
func (e *Engine) waitDurable(target uint64) error {
	for {
		if e.err != nil {
			return e.err
		}
		if e.durableSeq >= target {
			return nil
		}
		if e.syncing {
			e.syncCond.Wait()
			continue
		}
		e.syncing = true
		// Cohort-fill window (the classic group-commit delay, reduced to
		// one scheduler yield): with leadership claimed, give runnable
		// committers one chance to enqueue before the frame is cut. On a
		// single-CPU host this is what actually forms cohorts — a blocked
		// fsync syscall does not reliably hand the processor to the
		// waiters — and on multi-core hosts it costs one reschedule while
		// the previous cohort's fsync is the natural fill window anyway.
		e.mu.Unlock()
		runtime.Gosched()
		e.mu.Lock()
		if e.err != nil {
			e.syncing = false
			e.syncCond.Broadcast()
			return e.err
		}
		e.plane.drainCohortLocked()
		if e.err == nil {
			if err := e.wal.w.Flush(); err != nil {
				e.poisonLocked(err)
			}
		}
		if e.err != nil {
			e.syncing = false
			e.syncCond.Broadcast()
			return e.err
		}
		covered := e.appendSeq // everything encoded so far rides this fsync
		// Same bound for the repl plane: frames encoded after mu drops (an
		// Append during the disk wait) are in the bufio buffer, not on disk,
		// and must not promote on this fsync.
		replCovered := e.replNext
		w := e.wal
		e.mu.Unlock()
		fsyncStart := time.Now()
		serr := w.fsync()
		e.m.fsyncNs.ObserveDuration(time.Since(fsyncStart))
		e.mu.Lock()
		e.m.walSyncs.Inc()
		if serr != nil {
			// Fail-stop: a failed commit-plane fsync leaves the OS cache in
			// an unknowable state, so no later fsync may be trusted to ack.
			e.poisonLocked(serr)
		}
		if serr == nil && covered > e.durableSeq {
			e.durableSeq = covered
		}
		if serr == nil {
			e.replPromoteLocked(replCovered)
		}
		e.syncing = false
		e.syncCond.Broadcast()
		// Loop: covered >= target by construction, so this returns unless
		// the fsync failed — then the sticky error surfaces.
	}
}

// spillKeys bounds what the active log holds, and with it the resident run
// and the replay a crash pays: a Drain that finds this many keys drained
// since the last rotation plus pending (duplicates counted — the log holds
// them whether or not the run does) is a Flush. The test reads pending
// before the freeze, so the log may pass the bound by what one freeze takes
// beyond it — about DrainKeys keys under the drainer — and the next Drain
// spills. Picked from the measured curve in README "Persistent
// store": 16k keys leaves reads visiting twice the segments, 256k makes the
// retrain every drain pays and the WAL a crash replays four times dearer
// for ~1 µs of read_p50.
const spillKeys = 1 << 16

// Flush makes every pending key served, writes them — and the resident run
// the drains since the last Flush built — as one fsynced segment file, and
// trims the log. The next log is created and reserved before the write
// mutex is taken, which is then held only for the freeze: snapshot the
// pending keys, fsync the active WAL and swap the new one in. Training the
// segment and committing it happen off the write path, so concurrent
// Appends proceed during the heavy part. The frozen log is deleted only
// after the segment is committed — a crash in between re-replays it into
// duplicates, never a loss. Keys that are not in the log yet — a preload —
// need no log at all: BulkLoad writes them as the segment directly, where
// Append + Flush would encode, write and fsync every key into a log first
// only to delete it.
func (e *Engine) Flush() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	return e.spill()
}

// Drain makes every pending key served without writing a file: the
// visibility half of Flush. The pending keys are frozen under the write
// mutex and, once the group-commit barrier has made every one of them
// durable (served ⊆ durable; a no-op when they all arrived through
// Commit), merged off-lock with the resident run into a rebuilt resident
// run — a segment like any other to every read, always last in the list,
// with the WAL as its keys' durable home: the log is neither rotated nor
// trimmed. A Drain that finds spillKeys keys in the log is a Flush.
func (e *Engine) Drain() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if e.drained+e.PendingLen() >= spillKeys {
		return e.spill()
	}
	return e.drain()
}

// wakeDrainer wakes the drainer once DrainKeys keys are pending.
// Non-blocking: a wake already queued covers these keys too, because the
// drainer re-checks the pending count before it drains.
func (e *Engine) wakeDrainer() {
	if n := e.opts.DrainKeys; n > 0 && e.PendingLen() >= n {
		select {
		case e.drainCh <- struct{}{}:
		default:
		}
	}
}

// drainer is the background goroutine of an engine opened with DrainKeys:
// each wake drains the pending keys, and the Drain spills once the log
// holds spillKeys keys.
func (e *Engine) drainer() {
	defer e.wg.Done()
	for {
		select {
		case <-e.drainCh:
			// A wake can outlive the drain it asked for (it was queued while
			// that drain ran): re-check, or each stale wake retrains the
			// resident run for a sliver of keys.
			if e.PendingLen() >= e.opts.DrainKeys {
				e.Drain() // errors are sticky; surfaced by Sync/Flush/Close
			}
		case <-e.quit:
			return
		}
	}
}

// BulkLoad makes keys (any order, duplicates allowed) served and durable
// as one segment file without logging them: sort, dedupe against the
// served segments, train, commit the file (temp file → fsync → rename →
// directory fsync) under the next sequence number, publish. The keys are
// durable when it returns nil, as after a Flush; a crash before then
// leaves none of them. It is the preload of a freshly opened engine and
// refuses any other state: pending keys or a resident run (its segment
// would land behind the run, which must stay last in the list), or a
// replication sink (no log frame is written, so a follower would never see
// the keys). A failed segment write degrades the engine, like a failed
// Flush.
func (e *Engine) BulkLoad(keys []uint64) error {
	return bulkLoad(e, planeOf[uint64](e).ops, keys)
}

// BulkLoadStrings is BulkLoad for a string-keyed engine.
func (e *Engine) BulkLoadStrings(keys []string) error {
	return bulkLoad(e, planeOf[string](e).ops, keys)
}

func bulkLoad[K cmp.Ordered](e *Engine, ops *keyOps[K], keys []K) error {
	if len(keys) == 0 {
		return nil
	}
	// flushMu keeps drains out, so no resident run appears behind the check.
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.mu.Lock()
	err := e.writeGateLocked()
	switch {
	case err != nil:
	case e.closed.Load():
		err = fmt.Errorf("storage: engine closed")
	case e.PendingLen() > 0 || residentOf(*e.segs.Load()) != nil:
		err = fmt.Errorf("storage: bulk load into an engine with unspilled keys (Flush first)")
	case e.replSink != nil:
		err = fmt.Errorf("storage: bulk load into an engine that ships its log")
	}
	e.mu.Unlock()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := materialize(e, ops, keys, nil, true, e.m.flushes); err != nil {
		e.degrade(err)
		return err
	}
	e.m.flushNs.ObserveDuration(time.Since(start))
	e.kickCompactor()
	return nil
}

// residentOf returns the resident run of a segment list, or nil.
func residentOf(segs []*segment) *segment {
	if n := len(segs); n > 0 && segs[n-1].resident() {
		return segs[n-1]
	}
	return nil
}

// frozenKeys is what one freeze took off the write plane: how many keys,
// now the plane's flushing list, and the repl frame number their frames
// end at.
type frozenKeys struct {
	keys       int
	replTrimTo uint64
}

// freezeLocked moves the pending list to flushing (scan-visible while the
// segment trains off-lock). Called with mu held.
func (e *Engine) freezeLocked() (frozenKeys, error) {
	if err := e.writeGateLocked(); err != nil {
		return frozenKeys{}, err
	}
	// Queued Commit batches must land in the log before the freeze: their
	// keys are already pending (and will reach the segment), so their frames
	// have to be covered by the caller's fsync for the ack plane to stay
	// honest.
	e.plane.drainCohortLocked()
	if e.err != nil {
		return frozenKeys{}, e.err
	}
	f := frozenKeys{keys: e.plane.freezeLocked()}
	e.pendingLen.Store(0)
	// Every frozen key's frame is encoded by now; once the keys are served
	// by a published segment these frames trim from the durable tail.
	f.replTrimTo = e.replNext
	return f, nil
}

// serveFrozen materializes a freeze's keys off the write mutex. A failure
// (after materialize's retries) is a segment-plane failure: the engine
// degrades to read-only rather than poisons, because every acked key is
// still safe in the log and recovery replays it at the next Open. The
// plane's flushing list stays set (and out of the pool): the acked keys
// remain visible to scans on the degraded engine.
func (e *Engine) serveFrozen(res *segment, spill bool, count *obs.Counter) error {
	err := e.plane.serveFrozen(res, spill, count)
	if err != nil {
		e.degrade(err)
	}
	return err
}

// spill is Flush's body: freeze, rotate to a fresh log with the frozen one
// fsynced, then materialize a file off-lock. Called with flushMu held.
func (e *Engine) spill() error {
	e.mu.Lock()
	err := e.writeGateLocked()
	npend := e.PendingLen()
	e.mu.Unlock()
	// A resident run implies drained > 0: only drains build it.
	if err != nil || (npend == 0 && e.drained == 0) {
		return err
	}
	start := time.Now()
	// Only drains and spills replace the resident run, and flushMu
	// serializes them.
	res := residentOf(*e.segs.Load())
	nw, err := e.createWAL(e.walSeq + 1)
	e.mu.Lock()
	if err != nil {
		err = e.poisonLocked(err)
		e.mu.Unlock()
		return err
	}
	f, err := e.freezeLocked()
	if err != nil {
		e.mu.Unlock()
		e.discardWAL(nw)
		return err
	}
	// The frozen log must be durable before the ack plane moves past it:
	// a Sync arriving after the freeze fsyncs only the new active log, so
	// any still-buffered frozen bytes have to hit disk here.
	frozen := e.wal
	fsyncStart := time.Now()
	if err := frozen.sync(); err != nil {
		err = e.poisonLocked(err)
		e.mu.Unlock()
		e.discardWAL(nw)
		return err
	}
	e.m.fsyncNs.ObserveDuration(time.Since(fsyncStart))
	e.m.walSyncs.Inc()
	// Everything encoded so far is now on disk; release any committers
	// waiting on the old log before the heavy training starts.
	if e.appendSeq > e.durableSeq {
		e.durableSeq = e.appendSeq
	}
	// The freeze fsync ran with mu held throughout, so every encoded frame
	// is on disk and the whole pending run promotes.
	e.replPromoteLocked(e.replNext)
	e.syncCond.Broadcast()
	e.walSeq++
	e.wal = nw
	e.mu.Unlock()
	e.drained = 0 // the active log is empty; the frozen one is the file's to retire

	merr := e.serveFrozen(res, true, e.m.flushes)
	// A failed materialize keeps the frozen log file on disk — it is the
	// only durable home of the snapshot now — but releases its descriptor.
	e.countIOErr("close frozen WAL", frozen.close())
	if merr != nil {
		return merr
	}
	// Best-effort: a frozen log outliving its segment is re-replayed at
	// the next open and deduplicated away.
	e.countIOErr("remove frozen WAL", e.fs.Remove(frozen.path))
	e.plane.thaw(f.replTrimTo)
	e.m.flushNs.ObserveDuration(time.Since(start))
	e.kickCompactor()
	return nil
}

// drain is Drain's body: freeze, wait out the group-commit barrier, then
// rebuild the resident run off-lock. Called with flushMu held.
func (e *Engine) drain() error {
	start := time.Now()
	res := residentOf(*e.segs.Load())
	e.mu.Lock()
	if e.PendingLen() == 0 {
		err := e.writeGateLocked()
		e.mu.Unlock()
		return err
	}
	f, err := e.freezeLocked()
	if err == nil {
		// The barrier: a key that only Append logged is not served before
		// its fsync. It drops mu for the disk wait; appends made meanwhile
		// land in the fresh pending list.
		err = e.waitDurable(e.appendSeq)
	}
	e.mu.Unlock()
	if err != nil {
		return err
	}
	e.drained += f.keys
	if err := e.serveFrozen(res, false, e.m.drains); err != nil {
		return err
	}
	e.plane.thaw(f.replTrimTo)
	e.m.drainNs.ObserveDuration(time.Since(start))
	return nil
}

// materialize dedupes keys against the served segments, merges the novel
// remainder with the resident run res (nil when there is none) and
// publishes the result in res's place at the tail of the list: as the new
// resident run, or, with spill, as a committed segment file under the next
// sequence number. Called from spill, drain and bulkLoad (off the write
// mutex) and from Open (recovery replay, count == nil — recovery is neither
// a flush nor a drain). count is bumped under segMu together with the
// publication, so a concurrent Stats never observes the segment without its
// flush, or alone when everything deduplicated away and there is nothing to
// publish.
func materialize[K cmp.Ordered](e *Engine, ops *keyOps[K], keys []K, res *segment, spill bool, count *obs.Counter) error {
	fresh := slices.Clone(keys)
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	// Segment disjointness: drop keys already served by an older segment
	// (the resident run among them).
	fresh = dropServed(*e.segs.Load(), ops, fresh)
	seq := e.nextSeq
	var seg *segment
	switch {
	case len(fresh) > 0:
		if res != nil {
			fresh = scan.MergeRuns([][]K{ops.keys(res), fresh})
		}
		var err error
		if seg, err = ops.build(e, seq, seq, fresh); err != nil {
			return err
		}
	case spill && res != nil:
		seg = res.unpublished(seq, seq) // already built; it only lacks its file
	default:
		if count != nil {
			count.Inc()
		}
		return nil
	}
	if spill {
		if err := e.commitSegment(seg); err != nil {
			return err
		}
		e.nextSeq = seq + 1
	}
	e.segMu.Lock()
	cur := *e.segs.Load()
	if res != nil {
		// Compactions may have spliced the list meanwhile; none touches the
		// resident run, so it is still the tail.
		cur = cur[:len(cur)-1]
	}
	next := append(slices.Clone(cur), seg)
	e.segs.Store(&next)
	if len(fresh) > 0 {
		e.m.modelsTrained.Inc()
	}
	if count != nil {
		count.Inc()
	}
	e.segMu.Unlock()
	return nil
}

// commitSegment gives a built segment its file, under the segment plane's
// retry policy: the index is built once, only the write is retried.
func (e *Engine) commitSegment(s *segment) error {
	return e.retryIO(func() error { return commitSegment(e.fs, e.countIOErr, e.dir, s) })
}

// createWAL creates and reserves the engine's log number seq.
func (e *Engine) createWAL(seq uint64) (*wal, error) {
	return newWAL(e.fs, filepath.Join(e.dir, e.walName(seq)), e.countIOErr)
}

// discardWAL closes and removes a log created for a freeze that did not
// happen. Best-effort: an empty log that survives replays to nothing at
// the next open.
func (e *Engine) discardWAL(w *wal) {
	e.countIOErr("close unused WAL", w.close())
	e.countIOErr("remove unused WAL", e.fs.Remove(w.path))
}

// walName returns the engine's mode-appropriate WAL filename for seq.
func (e *Engine) walName(seq uint64) string {
	if e.opts.StringKeys {
		return walStrFileName(seq)
	}
	return walFileName(seq)
}

// scanWALFiles returns the engine-mode WAL files in dir, sorted by
// sequence, plus a count of logs of the *other* key mode so Open can
// reject a mode-mismatched directory instead of ignoring durable keys.
func scanWALFiles(fs vfs.FS, dir string, strMode bool) (seqs []uint64, paths []string, otherKind int, err error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	type sw struct {
		seq  uint64
		path string
	}
	var all []sw
	for _, ent := range entries {
		name := ent.Name()
		seq, ok := parseWALFileName(name)
		isStr := false
		if !ok {
			seq, ok = parseWALStrFileName(name)
			isStr = true
		}
		if !ok {
			continue
		}
		if isStr != strMode {
			otherKind++
			continue
		}
		all = append(all, sw{seq, filepath.Join(dir, name)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, s := range all {
		seqs = append(seqs, s.seq)
		paths = append(paths, s.path)
	}
	return seqs, paths, otherKind, nil
}

// Contains reports whether key is served (drained or flushed). Lock-free.
func (e *Engine) Contains(key uint64) bool {
	return containsBatchIn(*e.segs.Load(), planeOf[uint64](e).ops, []uint64{key}, nil) > 0
}

// ContainsString reports whether a string key is served (drained or flushed).
// Lock-free; the string engine's Contains.
func (e *Engine) ContainsString(key string) bool {
	return containsBatchIn(*e.segs.Load(), planeOf[string](e).ops, []string{key}, nil) > 0
}

// LookupString is Lookup for a string-keyed engine, in codec (byte)
// order.
func (e *Engine) LookupString(key string) int {
	return rankIn(*e.segs.Load(), planeOf[string](e).ops, key)
}

// ContainsBatch answers Contains for every probe against one captured
// segment list, writing into out (len(out) must equal len(probes)) — a
// single consistent view even when a flush publishes mid-batch.
func (e *Engine) ContainsBatch(probes []uint64, out []bool) {
	containsBatchIn(*e.segs.Load(), planeOf[uint64](e).ops, probes, out)
}

// ContainsBatchString is ContainsBatch for a string-keyed engine.
func (e *Engine) ContainsBatchString(probes []string, out []bool) {
	containsBatchIn(*e.segs.Load(), planeOf[string](e).ops, probes, out)
}

// Lookup returns the global lower-bound position of key over all served
// keys: the number of served keys < key. Segments hold disjoint key sets,
// so the global position is the exact sum of per-segment positions; the
// min/max fence resolves out-of-range segments with two comparisons
// instead of a model run (a probe at or below a segment's minimum
// contributes 0, one above its maximum contributes the full count).
func (e *Engine) Lookup(key uint64) int {
	return rankIn(*e.segs.Load(), planeOf[uint64](e).ops, key)
}

// LookupBatch answers Lookup for every probe, in any order, against one
// captured segment list — a single consistent view even when a flush or a
// compaction publishes mid-batch — writing into out (len(out) must equal
// len(probes)). See rankBatchIn.
func (e *Engine) LookupBatch(probes []uint64, out []int) {
	rankBatchIn(*e.segs.Load(), planeOf[uint64](e).ops, probes, out)
}

// LookupBatchString is LookupBatch for a string-keyed engine.
func (e *Engine) LookupBatchString(probes []string, out []int) {
	rankBatchIn(*e.segs.Load(), planeOf[string](e).ops, probes, out)
}

// Len returns the number of served (drained or flushed) distinct keys, in
// either mode.
func (e *Engine) Len() int {
	total := 0
	for _, s := range *e.segs.Load() {
		total += s.numKeys()
	}
	return total
}

// PendingLen returns how many appended keys await the next Drain or Flush
// (duplicates included), in either mode. Lock-free.
func (e *Engine) PendingLen() int { return int(e.pendingLen.Load()) }

// Keys returns all served keys, sorted ascending — a fresh merged copy.
func (e *Engine) Keys() []uint64 { return servedKeys(e, planeOf[uint64](e).ops) }

// KeysStrings returns all served string keys, sorted ascending — a fresh
// merged copy, materialized one segment run at a time.
func (e *Engine) KeysStrings() []string { return servedKeys(e, planeOf[string](e).ops) }

// servedKeys returns all served keys, sorted ascending: a fresh merged
// copy, gathered one segment's run at a time.
func servedKeys[K cmp.Ordered](e *Engine, ops *keyOps[K]) []K {
	segs := *e.segs.Load()
	n := 0
	for _, s := range segs {
		n += s.numKeys()
	}
	out := make([]K, 0, n)
	for _, s := range segs {
		out = append(out, ops.keys(s)...)
	}
	slices.Sort(out)
	return out
}

// Stats snapshots the engine's observable state: a typed view over the
// registry counters plus the segment list. Segment-derived fields and the
// flush/compaction counters are read under one segMu acquisition — the
// same lock every publication bumps its counter under — so the view is
// internally consistent: a segment never appears before the drain, flush
// or compaction that produced it. (Recovery publishes its replay segment
// without a flush, so Segments <= Flushes holds from any fresh directory
// that is only flushed, not across a crash replay.)
func (e *Engine) Stats() Stats {
	e.segMu.Lock()
	segs := *e.segs.Load()
	st := Stats{
		Segments:      len(segs),
		ModelsLoaded:  int(e.m.modelsLoaded.Load()),
		ModelsTrained: int(e.m.modelsTrained.Load()),
		Flushes:       int(e.m.flushes.Load()),
		Drains:        int(e.m.drains.Load()),
		Compactions:   int(e.m.compactions.Load()),
		WALSyncs:      int(e.m.walSyncs.Load()),
		Commits:       int(e.m.commits.Load()),
	}
	e.segMu.Unlock()
	for _, s := range segs {
		st.Keys += s.numKeys()
		st.DiskBytes += s.diskBytes
	}
	e.mu.Lock()
	st.PendingKeys = e.PendingLen()
	if e.wal != nil {
		st.WALBytes = e.wal.size
	}
	e.mu.Unlock()
	return st
}

// Registry returns the engine's metrics registry (the one Options.Reg
// supplied, or the private default).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Metrics snapshots the full metrics plane: registry counters and
// histograms plus the collector-injected engine gauges and per-segment
// series. Safe to call concurrently with everything.
func (e *Engine) Metrics() *obs.Snapshot { return e.reg.Snapshot() }

// collect is the engine's registry collector: point-in-time gauges that
// have no meaningful event stream (sizes, depths, debt) and the
// per-segment series: the compiled plan's model-health histograms against
// its trained bound.
func (e *Engine) collect(s *obs.Snapshot) {
	segs := *e.segs.Load()
	keys, disk := 0, int64(0)
	pinned := 0
	for _, sg := range segs {
		keys += sg.numKeys()
		disk += sg.diskBytes
		if sg.pins.Load() > 0 {
			pinned++
		}
	}
	resident := 0
	if res := residentOf(segs); res != nil {
		resident = res.numKeys()
	}
	s.SetGauge("lix_storage_segments", float64(len(segs)))
	s.SetGauge("lix_storage_resident_keys", float64(resident))
	s.SetGauge("lix_storage_keys", float64(keys))
	s.SetGauge("lix_storage_disk_bytes", float64(disk))
	s.SetGauge("lix_storage_pinned_segments", float64(pinned))
	s.SetGauge("lix_storage_compaction_debt", float64(compactionDebt(segs, e.opts.CompactFanout)))
	e.mu.Lock()
	pending := e.PendingLen()
	var walBytes int64
	if e.wal != nil {
		walBytes = e.wal.size
	}
	e.mu.Unlock()
	s.SetGauge("lix_storage_pending_keys", float64(pending))
	s.SetGauge("lix_storage_wal_bytes", float64(walBytes))
	// Failure-model plane: 0 ok, 1 degraded (read-only), 2 failed
	// (fail-stop), plus the count of quarantined segment files in the
	// directory.
	s.SetGauge("lix_storage_health", float64(e.healthWord.Load()))
	s.SetGauge("lix_segments_quarantined", float64(e.quarCount.Load()))

	var allErr, allLen obs.HistSnapshot
	maxBound := 0
	for _, sg := range segs {
		name := sg.name()
		errH, lenH := sg.plan.ObsModelErr(), sg.plan.ObsSearchLen()
		bound := sg.plan.TrainedErrBound()
		s.AddHistogram(obs.L("lix_segment_model_err", "segment", name), errH)
		s.AddHistogram(obs.L("lix_segment_search_window", "segment", name), lenH)
		s.SetGauge(obs.L("lix_segment_trained_err_bound", "segment", name), float64(bound))
		allErr.Merge(errH)
		allLen.Merge(lenH)
		if bound > maxBound {
			maxBound = bound
		}
	}
	s.AddHistogram("lix_storage_model_err", allErr)
	s.AddHistogram("lix_storage_search_window", allLen)
	s.SetGauge("lix_storage_trained_err_bound", float64(maxBound))
}

// compactionDebt counts the segments sitting in merge-eligible runs: how
// much work the size-tiered compactor has queued up, found by the same
// pickRun the compactor merges by. Zero means nothing is eligible.
func compactionDebt(segs []*segment, fanout int) int {
	debt := 0
	for {
		start, n := pickRun(segs, fanout)
		if n == 0 {
			return debt
		}
		debt += n
		segs = segs[start+n:]
	}
}

// Dir returns the engine's root directory.
func (e *Engine) Dir() string { return e.dir }

// FS returns the filesystem the engine was opened on, for files kept beside
// the engine's own in Dir.
func (e *Engine) FS() vfs.FS { return e.fs }

// kickCompactor nudges the background compactor without blocking.
func (e *Engine) kickCompactor() {
	select {
	case e.compactCh <- struct{}{}:
	default:
	}
}

// compactor is the background goroutine: after every flush signal (a drain
// writes no file, so it leaves nothing new to merge) it merges until no
// tier is over its fanout. Errors latch into the sticky
// error (compactOnce does it), so a failing disk surfaces on the next
// Sync/Flush/Close instead of churning silently; the loop also stops
// retrying once the error is set.
func (e *Engine) compactor() {
	defer e.wg.Done()
	for {
		select {
		case <-e.compactCh:
			for {
				changed, err := e.compactOnce()
				if err != nil || !changed {
					break
				}
			}
		case <-e.quit:
			return
		}
	}
}

// Compact runs size-tiered compaction to quiescence in the caller's
// goroutine (useful with NoCompactor and in tests).
func (e *Engine) Compact() error {
	for {
		changed, err := e.compactOnce()
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}

// sizeClass buckets a segment's on-disk size into power-of-4 tiers, the
// classic size-tiered grouping: runs within ~4x of each other share a
// class and are merge candidates.
func sizeClass(bytes int64) int {
	return bits.Len64(uint64(bytes)) / 2
}

// maxSizeClass is the highest class an int64 size can fall in.
const maxSizeClass = 32

// class is the size class of the segment's file. The resident run has no
// file to merge or delete and sits above every class: like any larger
// segment it ends a run and is never a member of one.
func (s *segment) class() int {
	if s.resident() {
		return maxSizeClass + 1
	}
	return sizeClass(s.diskBytes)
}

// pickRun chooses the next compaction input, segs[start:start+n); n is 0
// when nothing is eligible. For a size class c, a candidate is a maximal
// contiguous run of segments of class <= c; it is eligible when at least
// fanout of its members are of class exactly c. The lowest class wins
// (smallest merges first), then the oldest run, capped at 2x fanout inputs.
//
// Smaller segments inside the run ride along rather than split it. Flushes
// are not all one size — a Close, an explicit Flush or a follower's timer
// publishes whatever is pending — and under a rule that only merges runs
// of one exact class, every such straggler permanently separates its
// same-class neighbours, so the list grows with the number of flushes
// instead of its logarithm. Larger segments still end a run: the members
// of class c set the price of the merge, and a segment of a higher class
// is only rewritten once fanout of its own class have gathered. The
// resident run (segment.class) is never picked.
func pickRun(segs []*segment, fanout int) (start, n int) {
	for c := 0; c <= maxSizeClass; c++ {
		for i := 0; i < len(segs); i++ {
			j, members := i, 0
			for ; j < len(segs); j++ {
				cl := segs[j].class()
				if cl > c {
					break
				}
				if cl == c {
					members++
				}
			}
			if members >= fanout {
				return i, min(j-i, 2*fanout)
			}
			i = j // segs[j], if any, is of a higher class: skip it
		}
	}
	return 0, 0
}

// compactOnce merges the run pickRun chooses. The merge trains the
// replacement off the segment lock; publication swaps the list atomically
// and the input files are deleted afterwards — the run is contiguous in
// sequence order, so recovery's containment rule covers a crash anywhere
// in between.
func (e *Engine) compactOnce() (bool, error) {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.mu.Lock()
	failed := e.writeGateLocked()
	e.mu.Unlock()
	if failed != nil {
		return false, failed // engine already poisoned or degraded; don't churn
	}
	e.segMu.Lock()
	segs := *e.segs.Load()
	bestStart, bestLen := pickRun(segs, e.opts.CompactFanout)
	run := segs[bestStart : bestStart+bestLen]
	e.segMu.Unlock()
	if bestLen == 0 {
		return false, nil
	}

	// Heavy work off the lock: merge the disjoint sorted runs, train the
	// replacement, commit its file. Readers keep serving the old list
	// meanwhile.
	compactStart := time.Now()
	seg, err := e.plane.merge(run)
	if err == nil {
		err = e.commitSegment(seg)
	}
	if err != nil {
		// Segment-plane failure past its retries: the inputs stay live and
		// every key stays served, but the engine stops taking writes.
		e.degrade(err)
		return false, err
	}

	e.segMu.Lock()
	cur := slices.Clone(*e.segs.Load())
	// No other compaction runs, and a drain or a flush only replaces the
	// resident run at the tail — never in a run, see pickRun — or appends
	// after it (segMu serializes publication; the run was chosen under segMu
	// too), so the run still sits at bestStart.
	next := append(cur[:bestStart:bestStart], seg)
	next = append(next, cur[bestStart+bestLen:]...)
	e.segs.Store(&next)
	// Retire the inputs under the same lock that pinned them — the
	// pin-or-zombie decision must not race a snapshot acquisition — but
	// issue the unlink syscalls after unlocking so scan opens/closes never
	// stall on filesystem latency (a leftover is GC'd by containment at
	// next open either way).
	var sweep []string
	for _, s := range run {
		if p := e.retireLocked(s); p != "" {
			sweep = append(sweep, p)
		}
	}
	// Counted under segMu with the swap, like flushes: a concurrent Stats
	// never sees the merged list before the compaction that made it.
	e.m.modelsTrained.Inc()
	e.m.compactions.Inc()
	e.segMu.Unlock()
	for _, p := range sweep {
		// Best-effort: a leftover input is GC'd by containment at next open.
		e.countIOErr("remove compacted input", e.fs.Remove(p))
	}
	e.m.compactNs.ObserveDuration(time.Since(compactStart))
	return true, nil
}

// Close stops the compactor and the drainer, flushes — pending keys and
// the resident run land in a segment file, so the next open replays no log
// and trains nothing — and closes the active WAL. The engine is unusable
// afterwards. Returns the sticky write error, if any, so a failed ack
// surfaces at least once.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	close(e.quit)
	e.wg.Wait()
	ferr := e.Flush()
	e.mu.Lock()
	defer e.mu.Unlock()
	cerr := e.wal.close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
