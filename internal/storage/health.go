package storage

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"syscall"
	"time"
)

// Health classifies the engine's failure state. The ladder only descends:
// a healthy engine can degrade or fail, a degraded engine can fail, and
// nothing climbs back without a reopen (recovery replays the WAL and
// re-validates the segments, which is the only trustworthy way up).
type Health int32

const (
	// HealthOK: full service.
	HealthOK Health = iota
	// HealthDegraded: read-only. The segment plane hit a persistent error
	// (ENOSPC, a flush or compaction that failed past its retries), so the
	// engine stops accepting writes — but every acked key is still durable
	// (the frozen WAL of a failed flush stays on disk) and reads keep
	// serving from the published segments plus the visible delta.
	HealthDegraded
	// HealthFailed: fail-stop. The commit plane itself failed — a WAL
	// append or fsync error — so the engine can no longer know what is
	// durable. Every durable operation returns the sticky poison error;
	// nothing is ever falsely acked (the fsyncgate lesson: after a failed
	// fsync, the page cache may lie, so retrying a sync and acking it
	// would trade an error for silent loss). Reads keep serving.
	HealthFailed
)

func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthDegraded:
		return "degraded"
	case HealthFailed:
		return "failed"
	}
	return fmt.Sprintf("health(%d)", int32(h))
}

// ErrPoisoned wraps every error returned by a fail-stop engine: the
// commit plane failed and no later ack can be trusted.
var ErrPoisoned = errors.New("storage: engine poisoned by a commit-plane failure")

// ErrDegraded wraps every write rejected by a degraded (read-only)
// engine.
var ErrDegraded = errors.New("storage: engine degraded, writes disabled")

// Health returns the engine's current state and the error that put it
// there (nil when HealthOK).
func (e *Engine) Health() (Health, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return HealthFailed, e.err
	}
	if e.degradedCause != nil {
		return HealthDegraded, e.degradedCause
	}
	return HealthOK, nil
}

// poisonLocked latches the fail-stop error: first cause wins, every later
// durable operation returns it. Called with mu held.
func (e *Engine) poisonLocked(cause error) error {
	if e.err == nil {
		e.err = fmt.Errorf("%w: %w", ErrPoisoned, cause)
		e.healthWord.Store(int32(HealthFailed))
	}
	return e.err
}

// degrade flips the engine read-only after a segment-plane failure. Acked
// keys stay durable (WAL intact) and reads keep serving; only new writes
// are refused until a reopen.
func (e *Engine) degrade(cause error) {
	e.mu.Lock()
	if e.degradedCause == nil && e.err == nil {
		e.degradedCause = fmt.Errorf("%w: %w", ErrDegraded, cause)
		e.healthWord.Store(int32(HealthDegraded))
		log.Printf("storage: %s degraded to read-only: %v", e.dir, cause)
	}
	e.mu.Unlock()
}

// writeGateLocked returns the error a durable operation must fail with —
// the poison error, then the degraded cause — or nil on a healthy engine.
// Called with mu held.
func (e *Engine) writeGateLocked() error {
	if e.err != nil {
		return e.err
	}
	if e.degradedCause != nil {
		return e.degradedCause
	}
	return nil
}

// Transient-error retry for the segment plane: a flush or compaction
// write is retried a few times with capped exponential backoff before the
// failure is treated as persistent (and degrades the engine). ENOSPC is
// never retried — a full disk does not heal in milliseconds, and each
// retry would just burn another temp-file write.
const (
	ioRetryAttempts = 3
	ioRetryBase     = 2 * time.Millisecond
	ioRetryCap      = 20 * time.Millisecond
)

// retryIO runs op under the segment-plane retry policy, counting each
// retry in lix_storage_io_retries_total.
func (e *Engine) retryIO(op func() error) error {
	delay := ioRetryBase
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || attempt >= ioRetryAttempts || errors.Is(err, syscall.ENOSPC) {
			return err
		}
		e.m.ioRetries.Inc()
		time.Sleep(delay)
		if delay *= 2; delay > ioRetryCap {
			delay = ioRetryCap
		}
	}
}

// Write backpressure: once the compactor owes backpressureDebt segments of
// merge work per CompactFanout (segments sitting in merge-eligible runs,
// see compactionDebt), appenders briefly stall — kicking the compactor and
// napping — instead of racing it further into debt. The wait is bounded
// (budget below), so a stuck compactor slows writes rather than hanging
// them. Under NoCompactor nobody would relieve the pressure, so there is
// none.
const (
	backpressureDebt   = 16
	backpressureBase   = time.Millisecond
	backpressureCap    = 20 * time.Millisecond
	backpressureBudget = 150 * time.Millisecond
)

// maybeBackpressure stalls the calling writer while compaction debt sits
// at or above the threshold, up to the bounded budget. Called before mu
// is taken (it sleeps).
func (e *Engine) maybeBackpressure() {
	if e.opts.NoCompactor {
		return
	}
	limit := backpressureDebt * e.opts.CompactFanout
	// Debt counts segments, so a list shorter than the threshold is under it.
	if segs := *e.segs.Load(); len(segs) < limit || compactionDebt(segs, e.opts.CompactFanout) < limit {
		return
	}
	delay := backpressureBase
	for waited := time.Duration(0); waited < backpressureBudget; waited += delay {
		e.kickCompactor()
		e.m.backpressureWaits.Inc()
		time.Sleep(delay)
		if compactionDebt(*e.segs.Load(), e.opts.CompactFanout) < limit {
			return
		}
		if delay *= 2; delay > backpressureCap {
			delay = backpressureCap
		}
	}
}

// ignoredIOErrOnce guards the one log line for best-effort I/O failures
// (cleanup removes, close-after-failure): the first occurrence is logged,
// every occurrence is counted in lix_storage_io_errors_total.
var ignoredIOErrOnce sync.Once

// countIOErr counts a best-effort I/O failure and logs the first one seen
// process-wide. Use for errors that are safe to ignore for correctness
// (re-replay dedups, containment GC re-collects) but must not stay
// invisible.
func (e *Engine) countIOErr(ctx string, err error) {
	if err == nil {
		return
	}
	e.m.ioErrors.Inc()
	ignoredIOErrOnce.Do(func() {
		log.Printf("storage: ignored I/O error (%s): %v (counted in lix_storage_io_errors_total from here on)", ctx, err)
	})
}
