package storage

import (
	"cmp"
	"slices"
)

// Replication export plane.
//
// The WAL is already a replication log: every durable mutation is a framed,
// checksummed record covered by a commit-plane fsync. This file exports that
// stream without adding a second log. Frames are captured at encode time
// (under mu, exactly where the WAL writes them), promoted to a durable tail
// when the covering fsync lands, and trimmed once a published segment serves
// their keys. A shipper (internal/repl) installs a sink to receive the
// durable stream and calls ReplSnapshot for cold-start catch-up.
//
// Invariant the plane maintains: at every instant, the engine's durable key
// set equals (keys in published segments) ∪ (keys in replTail frames). That
// is what makes ReplSnapshot loss-free and lets followers resume at the
// returned sequence.

// ReplFrame is one durably fsynced WAL frame exported for replication.
// Exactly one of Keys/Strs is populated, per the engine's key mode. Seq is
// the frame's position in the replication stream: contiguous from 1,
// assigned at encode time, scoped to this engine process (a reopened engine
// restarts at 1 — followers detect the restart via the primary's epoch and
// re-snapshot). Frames are immutable once promoted; receivers may retain
// them without copying.
type ReplFrame struct {
	Seq  uint64
	Keys []uint64
	Strs []string
}

// ReplSink receives newly durable frames in sequence order. It is invoked
// with the engine's write mutex held, immediately after the fsync that made
// the frames durable: implementations must be fast, must never block, and
// must never call back into the engine — hand the frames to another
// goroutine (they are immutable and safe to retain).
type ReplSink func(frames []ReplFrame)

// SetReplSink installs sink as the engine's replication export. Install it
// before the first write for a gapless stream: keys already durable but not
// yet flushed when the sink is installed reach followers only with the next
// segment publication (ReplSnapshot covers everything after that point).
// Passing nil detaches the sink and stops frame capture.
func (e *Engine) SetReplSink(sink ReplSink) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replSink = sink
}

// StringKeys reports which key mode the engine was opened in.
func (e *Engine) StringKeys() bool { return e.opts.StringKeys }

// ReplDurableSeq returns the highest frame sequence covered by a completed
// fsync — the durable horizon follower acks are measured against.
func (e *Engine) ReplDurableSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replDurable
}

// replRecordLocked captures a just-encoded WAL frame's keys, assigning the
// frame the next stream sequence. Called with mu held, with a sink
// installed, by the write plane's one site that writes a WAL frame
// (writePlane.logLocked); takes ownership of the frame's keys.
func (e *Engine) replRecordLocked(f ReplFrame) {
	e.replNext++
	f.Seq = e.replNext
	e.replPending = append(e.replPending, f)
}

// replPromoteLocked moves encoded frames with Seq <= covered to the durable
// tail and hands the batch to the sink. Called with mu held immediately
// after a successful commit-plane fsync; covered is the highest stream
// sequence whose bytes that fsync actually pushed to disk, captured (with
// mu held) before the leader dropped the lock for the disk wait. The bound
// matters: appends keep encoding frames while the fsync is in flight, and
// those frames are NOT durable yet — promoting them would ship keys to
// followers that a primary crash could still lose. They stay pending for
// the next fsync. Frames of a failed fsync are never promoted: the engine
// poisons and the stream ends at the last durable frame.
func (e *Engine) replPromoteLocked(covered uint64) {
	if e.replSink == nil || len(e.replPending) == 0 {
		return
	}
	n := 0
	for n < len(e.replPending) && e.replPending[n].Seq <= covered {
		n++
	}
	if n == 0 {
		return
	}
	var frames []ReplFrame
	if n == len(e.replPending) {
		frames = e.replPending
		e.replPending = nil
	} else {
		frames = append(frames, e.replPending[:n]...)
		e.replPending = append(e.replPending[:0], e.replPending[n:]...)
	}
	e.replTail = append(e.replTail, frames...)
	e.replDurable = frames[len(frames)-1].Seq
	e.replSink(frames)
}

// replTrimLocked drops durable frames with Seq <= trimTo from the tail:
// their keys are now served by a published segment, so snapshots no longer
// need the frames. Called with mu held after a flush publishes (trimTo is
// the last sequence encoded into the frozen log, captured at freeze time);
// never called on a failed flush — a degraded engine keeps its tail so
// ReplSnapshot stays loss-free.
func (e *Engine) replTrimLocked(trimTo uint64) {
	i := 0
	for i < len(e.replTail) && e.replTail[i].Seq <= trimTo {
		i++
	}
	if i > 0 {
		e.replTail = append(e.replTail[:0], e.replTail[i:]...)
	}
}

// ReplSnapshot captures a loss-free image of the engine's durable uint64
// key set for follower cold-start: every key in published segments plus
// every key in durable-but-unflushed frames, sorted and deduplicated. The
// returned seq is the durable horizon the image covers — a follower that
// applies the keys may resume streaming at seq+1. The image can include
// keys from frames newer than seq (a flush publishing concurrently);
// re-applied frames deduplicate on the follower, so over-inclusion is safe.
// Never includes appended-but-unsynced keys: those are not durable and must
// not reach a follower before their fsync.
func (e *Engine) ReplSnapshot() (seq uint64, keys []uint64) { return replSnapshot[uint64](e) }

// ReplSnapshotStrings is ReplSnapshot for the string key mode.
func (e *Engine) ReplSnapshotStrings() (seq uint64, keys []string) { return replSnapshot[string](e) }

func replSnapshot[K cmp.Ordered](e *Engine) (seq uint64, keys []K) {
	ops := planeOf[K](e).ops
	// Durable tail first, segments second — the same capture order as scan
	// snapshots: a frame trimmed between the two loads has already published
	// its keys into the segment list we read next, so nothing is lost.
	e.mu.Lock()
	seq = e.replDurable
	var tail []K
	for i := range e.replTail {
		tail = append(tail, *ops.replKeys(&e.replTail[i])...)
	}
	e.mu.Unlock()
	keys = append(servedKeys(e, ops), tail...)
	slices.Sort(keys)
	return seq, slices.Compact(keys)
}
