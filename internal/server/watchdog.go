package server

import (
	"math"
	"sync/atomic"
	"time"
)

// watchdog enforces a connection's deadlines with one timer for the
// connection's whole life. The owner publishes the current phase's deadline
// with a single atomic store (arm) — nothing is armed or stopped per
// request — and the timer, when it fires, either finds that deadline passed
// and closes the connection (which is how every deadline on this transport
// seam is enforced) or sleeps again until it is due. The timer never sleeps
// longer than the shortest timeout it guards, so a phase that began after it
// last looked cannot expire before it looks again: every deadline is met
// exactly, measured from the start of its own phase.
type watchdog struct {
	deadline atomic.Int64 // monoNow-scale instant the current phase expires; 0: none
	timer    *time.Timer
}

// wdStopped in watchdog.deadline marks a stopped watchdog.
const wdStopped = math.MinInt64

// monoBase anchors watchdog deadlines to the monotonic clock.
var monoBase = time.Now()

func monoNow() int64 { return int64(time.Since(monoBase)) }

// start begins watching; expire runs at most once, on the timer goroutine,
// when a deadline passes. period is the shortest timeout the owner will arm.
func (w *watchdog) start(period time.Duration, expire func()) {
	// Created unable to fire, then Reset: the Reset is what publishes
	// w.timer to the callback that re-arms it.
	w.timer = time.AfterFunc(math.MaxInt64, func() {
		next := period
		switch d := w.deadline.Load(); {
		case d == wdStopped:
			return // raced stop: do not resurrect the timer
		case d != 0:
			left := time.Duration(d - monoNow())
			if left <= 0 {
				expire()
				return
			}
			next = min(next, left)
		}
		w.timer.Reset(next)
	})
	w.timer.Reset(period)
}

// arm sets the current phase to expire d after now (a monoNow reading).
func (w *watchdog) arm(now int64, d time.Duration) { w.deadline.Store(now + int64(d)) }

// disarm ends the current phase: nothing expires until the next arm.
func (w *watchdog) disarm() { w.deadline.Store(0) }

// stop ends the watch for good: the timer is not re-armed again (a callback
// already past its check may still finish).
func (w *watchdog) stop() {
	w.deadline.Store(wdStopped)
	w.timer.Stop()
}
