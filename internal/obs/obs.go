// Package obs is the engine's always-on metrics plane: allocation-free,
// concurrency-safe primitives cheap enough to live inside the compiled
// read path, plus a registry that snapshots them into one coherent view
// and exporters that render the view as Prometheus text or JSON.
//
// # Primitives
//
//   - Counter: a monotonically increasing count, sharded over
//     cache-line-padded cells so concurrent writers on different cores
//     never bounce one hot line (Add is one uncontended atomic add; Load
//     sums the cells).
//   - Gauge: a settable level (single atomic — gauges are low-rate).
//   - Histogram: fixed log-spaced buckets; Observe is a single atomic add
//     into the value's bucket, Snapshot/Merge are lock-free, and quantile
//     estimates are exact to within one bucket width (<25% relative).
//   - Sampler / SampleKey: deterministic 1-in-N admission for paths too
//     hot to time every operation — SampleKey costs one multiply and no
//     shared state at all.
//
// # Build tag "noobs"
//
// Building with -tags noobs compiles the hot-path instrumentation out:
// Histogram becomes an empty no-op type, Enabled becomes the constant
// false so `if obs.Enabled { ... }` call sites (per-key sampling, per-probe
// funnel counts, scan tick state) are dead-code-eliminated. Counters and
// gauges stay real in both builds — the storage engine's accounting
// (storage.Stats) is built on them and they are the same atomics the
// engine paid before the metrics plane existed. To measure the on-vs-off
// delta rather than assume it, run the benchmark module (benchmark/) in
// pairs against a -tags noobs build of it.
package obs

import (
	"sync/atomic"
	"unsafe"
)

// counterShards is the cell count of a sharded Counter; a power of two so
// the shard pick is a mask.
const counterShards = 16

// padCell is one cache-line-padded counter cell: 64 bytes so two cells
// never share a line and concurrent Adds on different shards never false-
// share.
type padCell struct {
	v atomic.Int64
	_ [56]byte
}

// shardIndex picks a shard from the caller's stack address. Goroutine
// stacks are at least page-aligned apart, so concurrently running
// goroutines land on different cells with high probability; the pick costs
// one address shift, no per-goroutine state, no runtime hooks.
func shardIndex() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>10) & (counterShards - 1)
}

// Counter is a sharded monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	cells [counterShards]padCell
}

// Add adds n to the counter: one atomic add on the caller's shard cell.
func (c *Counter) Add(n int64) { c.cells[shardIndex()].v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load sums the cells. Concurrent Adds may or may not be included — the
// result is some value the counter passed through.
func (c *Counter) Load() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Gauge is a settable level. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }
