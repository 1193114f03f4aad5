// Package slicepool is the one shared implementation of the pooled-slice
// pattern the write path leans on: WAL record encode buffers and the
// storage engine's pending-key buffers recycle through a Pool so sustained ingest stops re-growing
// hot-path slices (and a future change to the retention discipline lands
// in exactly one place).
package slicepool

import "sync"

// Pool recycles []T buffers. The zero value is ready to use; Get returns
// a zero-length slice (nil on a cold pool — append-ready either way) and
// Put recycles a buffer's capacity.
type Pool[T any] struct {
	p sync.Pool
}

// Get returns a zero-length buffer, reusing a recycled one's capacity
// when available.
func (p *Pool[T]) Get() []T {
	if v := p.p.Get(); v != nil {
		return (*v.(*[]T))[:0]
	}
	return nil
}

// Put recycles b's backing array. Zero-capacity buffers are dropped —
// there is nothing to reuse.
func (p *Pool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	p.p.Put(&b)
}
