package storage

import (
	"cmp"
	"fmt"

	"learnedindex/internal/binenc"
	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
)

// The write plane, written once for both key kinds. Its keys in flight —
// the pending list, the list a drain or flush froze, the queued commit
// cohort — are one writePlane[K], and everything that appends, commits,
// frames a cohort, freezes, serves a freeze, thaws, recovers the logs and
// captures a replication frame or a scan delta runs once over it. The key
// kind only chooses the keyOps the plane carries: a record's grammar, the
// bound records are chunked against, and which ReplFrame and snapshot field
// a key run lands in.

// writePlane is an engine's write plane for keys of kind K. Open builds
// the one of the engine's key mode; the typed entry points reach it
// through planeOf, the mode-free engine through keyPlane. Every field but
// e and ops is guarded by the engine's mu.
type writePlane[K cmp.Ordered] struct {
	e   *Engine
	ops *keyOps[K]
	// pending holds the appended and committed keys no freeze has taken yet,
	// duplicates included; the engine's pendingLen mirrors its length.
	pending []K
	// flushing holds the keys frozen by an in-progress Drain or Flush, from
	// the freeze until the segment serving them is published. Scan
	// snapshots copy pending and flushing before they load the segment
	// list, so a key migrating through a flush is visible in at least one
	// layer at every instant.
	flushing []K
	// cohort holds the Commit batches queued for the next frame.
	cohort [][]K
}

// keyPlane is a writePlane with its key kind erased: what the mode-free
// group commit, freeze, recovery and compaction ask of it.
type keyPlane interface {
	drainCohortLocked()
	// freezeLocked moves pending to flushing and returns how many keys it
	// froze; serveFrozen materializes them and thaw lets them go.
	freezeLocked() int
	serveFrozen(res *segment, spill bool, count *obs.Counter) error
	thaw(replTrimTo uint64)
	recoverLogs(paths []string) error
	merge(run []*segment) (*segment, error)
}

// newWritePlane returns e's write plane for Options.StringKeys.
func newWritePlane(e *Engine) keyPlane {
	if e.opts.StringKeys {
		return &writePlane[string]{e: e, ops: &strOps}
	}
	return &writePlane[uint64]{e: e, ops: &u64Ops}
}

// planeOf returns e's write plane as the K-keyed plane it must be: every
// typed entry point goes through it, so calling one of the other key
// mode's panics.
func planeOf[K cmp.Ordered](e *Engine) *writePlane[K] {
	p, ok := e.plane.(*writePlane[K])
	if !ok {
		var k K
		panic(fmt.Sprintf("storage: %T call on a %s engine", k, modeName(e.opts.StringKeys)))
	}
	return p
}

func modeName(strKeys bool) string {
	if strKeys {
		return "string-keyed"
	}
	return "uint64-keyed"
}

// maxAppendChunk bounds the keys per uint64 WAL record (~5 MB at
// worst-case 10-byte varints, well under frame.MaxPayload) so arbitrarily
// large Append calls — e.g. a multi-million-key bootstrap — frame into
// several records instead of tripping the record-size limit.
const maxAppendChunk = 1 << 19

// maxStringChunkBytes bounds one string WAL record's encoded payload
// (~4 MB, well under frame.MaxPayload), the byte-domain twin of
// maxAppendChunk: strings are variable-width, so the count bound rides
// along for free.
const maxStringChunkBytes = 1 << 22

// encodedStringsSize returns the payload bytes keys encode to (lengths +
// data), excluding the record's count header.
func encodedStringsSize(keys []string) int {
	n := 0
	for _, k := range keys {
		n += len(k) + binenc.UvarintLen(uint64(len(k)))
	}
	return n
}

// acceptLocked is the gate of every append and commit: no latched failure,
// and the engine still open. Called with mu held.
func (e *Engine) acceptLocked() error {
	if err := e.writeGateLocked(); err != nil {
		return err
	}
	if e.closed.Load() {
		return fmt.Errorf("storage: engine closed")
	}
	return nil
}

// append is AppendBatch and AppendStringBatch: log keys as one or more
// records, then buffer them as pending.
func (p *writePlane[K]) append(keys []K) error {
	if len(keys) == 0 {
		return nil
	}
	e := p.e
	e.maybeBackpressure()
	defer e.wakeDrainer() // after the unlock: the drainer's first step takes mu
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.acceptLocked(); err != nil {
		return err
	}
	if err := p.logChunksLocked(keys); err != nil {
		return err
	}
	p.bufferLocked(keys)
	return nil
}

// commit is CommitBatch and CommitStringBatch: the batch joins the commit
// cohort and the caller waits for the fsync covering the cohort's frame.
func (p *writePlane[K]) commit(keys []K) error {
	e := p.e
	e.maybeBackpressure()
	defer e.wakeDrainer() // after the unlock, as in append
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(keys) == 0 {
		// Nothing to add; still honor the durability barrier semantics.
		return e.waitDurable(e.appendSeq)
	}
	if err := e.acceptLocked(); err != nil {
		return err
	}
	// Enqueue: the cohort holds a reference to the caller's batch (the
	// caller blocks until the frame is encoded, so it stays valid); pending
	// gets the keys now so a racing freeze serves them.
	p.cohort = append(p.cohort, keys)
	p.bufferLocked(keys)
	err := e.waitDurable(e.appendSeq)
	if err == nil {
		e.m.commits.Inc()
	}
	return err
}

// bufferLocked adds accepted keys to the pending list and counts the
// write. Called with mu held.
func (p *writePlane[K]) bufferLocked(keys []K) {
	p.pending = append(p.pending, keys...)
	p.e.pendingLen.Store(int64(len(p.pending)))
	p.e.appendSeq++
}

// logLocked frames batches as one WAL record and, when a replication sink
// is installed, captures the record's keys as one frame — copied, because
// batches are callers' memory. A failed write poisons; on a poisoned
// engine nothing is written. Called with mu held.
func (p *writePlane[K]) logLocked(batches ...[]K) error {
	e := p.e
	if e.err != nil || len(batches) == 0 {
		return e.err
	}
	if err := logRecord(e.wal, p.ops, batches...); err != nil {
		return e.poisonLocked(err)
	}
	if e.replSink != nil {
		var f ReplFrame
		run := p.ops.replKeys(&f)
		for _, b := range batches {
			*run = append(*run, b...)
		}
		e.replRecordLocked(f)
	}
	return nil
}

// logChunksLocked logs keys as the fewest records the record bound allows:
// each the longest run of keys that fits it, and at least one key, so a
// single enormous key still frames and the frame's payload limit catches
// true monsters. Called with mu held.
func (p *writePlane[K]) logChunksLocked(keys []K) error {
	if p.ops.weight(keys) <= p.ops.limit {
		return p.logLocked(keys)
	}
	for lo := 0; lo < len(keys); {
		hi, w := lo, 0
		for ; hi < len(keys); hi++ {
			kw := p.ops.weight(keys[hi : hi+1])
			if hi > lo && w+kw > p.ops.limit {
				break
			}
			w += kw
		}
		if err := p.logLocked(keys[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// drainCohortLocked encodes every queued Commit batch into as few WAL
// frames as the record bound allows — one for any sane cohort — clearing
// the queue. Batches are never split: a run of whole batches closes when
// the next would overflow the bound, and a batch over the bound on its own
// closes the run and is framed alone in chunks, like an Append. Called with
// mu held by the elected leader and by the freeze of a drain or flush
// (which must encode queued batches into the log before the fsync that
// lets their keys be served). Errors latch.
func (p *writePlane[K]) drainCohortLocked() {
	e := p.e
	if len(p.cohort) == 0 || e.err != nil {
		return
	}
	e.m.cohortCommits.Observe(uint64(len(p.cohort)))
	start, w := 0, 0
	for i, b := range p.cohort {
		bw := p.ops.weight(b)
		if bw > p.ops.limit {
			p.logLocked(p.cohort[start:i]...)
			p.logChunksLocked(b)
			start, w = i+1, 0
			continue
		}
		if w+bw > p.ops.limit {
			p.logLocked(p.cohort[start:i]...)
			start, w = i, 0
		}
		w += bw
	}
	p.logLocked(p.cohort[start:]...)
	clear(p.cohort)
	p.cohort = p.cohort[:0]
}

func (p *writePlane[K]) freezeLocked() int {
	p.flushing, p.pending = p.pending, p.ops.pendingPool.Get()
	return len(p.flushing)
}

// serveFrozen materializes the frozen keys. It reads flushing off the
// write mutex: only the freeze and the thaw change it, and both run in the
// flushMu holder's goroutine, the one calling it.
func (p *writePlane[K]) serveFrozen(res *segment, spill bool, count *obs.Counter) error {
	return materialize(p.e, p.ops, p.flushing, res, spill, count)
}

// thaw drops the frozen keys once a published segment serves them: only
// after the scan-visible flushing reference is gone may the buffer
// recycle.
func (p *writePlane[K]) thaw(replTrimTo uint64) {
	e := p.e
	e.mu.Lock()
	f := p.flushing
	p.flushing = nil
	e.replTrimLocked(replTrimTo)
	e.mu.Unlock()
	if cap(f) <= maxPooledPending {
		clear(f) // a pooled buffer must not pin flushed key bytes
		p.ops.pendingPool.Put(f)
	}
}

// recoverLogs replays the intact prefix of every log of paths and
// materializes the keys they held as one segment.
func (p *writePlane[K]) recoverLogs(paths []string) error {
	var recovered []K
	for _, path := range paths {
		data, err := p.e.fs.ReadFile(path)
		if err != nil {
			return err
		}
		keys, _ := replayLog(data, p.ops)
		recovered = append(recovered, keys...)
	}
	if len(recovered) == 0 {
		return nil
	}
	return materialize(p.e, p.ops, recovered, nil, true, nil)
}

// merge k-way merges the disjoint sorted key arrays of run into one fresh
// array (scan.MergeRuns, which would drop a key a violated disjointness
// invariant duplicated) and builds the segment covering run's sequence
// range over it.
func (p *writePlane[K]) merge(run []*segment) (*segment, error) {
	srcs := make([][]K, len(run))
	for i, s := range run {
		srcs[i] = p.ops.keys(s)
	}
	return p.ops.build(p.e, run[0].seqLo, run[len(run)-1].seqHi, scan.MergeRuns(srcs))
}

// The pending pools (keyOps.pendingPool, one per key kind) recycle the
// engines' pending-key buffers across drains and flushes: every freeze
// hands its snapshot to materialize (which clones what it needs) and takes
// a recycled buffer for the next fill, so sustained ingest stops re-growing
// a fresh pending slice per drain cycle. They are shared by every engine of
// the process, and a buffer taken at a freeze is held until that engine's
// next one, so only buffers of a few drain cycles' size go back: one large
// Append's buffer, recycled, would be pinned by whichever engine froze next
// for as long as that engine lives. The bound is four freezes at the
// serving layer's default DrainKeys (its MergeThreshold, 4096): the pool is
// process-wide, so no one engine's DrainKeys can size it, and re-growing a
// longer buffer is noise beside training the segment it fed.
const maxPooledPending = 4 * 4096 // keys
