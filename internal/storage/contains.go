package storage

import (
	"cmp"
	"sync"

	"learnedindex/internal/bloom"
	"learnedindex/internal/obs"
)

// keyOps is the key-kind seam of the segment planes that exist once for
// both modes: how a uint64 or a string key hashes for the Bloom filters,
// where a segment's fence sits, how a segment answers exact membership,
// which array holds its keys, and how a sorted unique key run becomes a
// committed segment.
type keyOps[K cmp.Ordered] struct {
	hash  func(K) (h1, h2 uint64)
	fence func(*segment) (lo, hi K)
	has   func(*segment, K) bool
	keys  func(*segment) []K
	write func(e *Engine, seqLo, seqHi uint64, keys []K) (*segment, error)
}

var (
	u64Ops = keyOps[uint64]{
		hash:  bloom.HashUint64,
		fence: func(s *segment) (uint64, uint64) { return s.minKey(), s.maxKey() },
		has:   func(s *segment, k uint64) bool { return s.plan.Contains(k) },
		keys:  func(s *segment) []uint64 { return s.keys },
		write: func(e *Engine, seqLo, seqHi uint64, keys []uint64) (*segment, error) {
			return writeSegment(e.fs, e.m.ioErrors, e.dir, seqLo, seqHi, keys, e.opts.Config, e.opts.BloomFPR)
		},
	}
	strOps = keyOps[string]{
		hash:  bloom.HashString,
		fence: func(s *segment) (string, string) { return s.minStr(), s.maxStr() },
		has:   func(s *segment, k string) bool { return s.sindex.Contains(k) },
		keys:  func(s *segment) []string { return s.strs },
		write: func(e *Engine, seqLo, seqHi uint64, keys []string) (*segment, error) {
			return writeStringSegment(e.fs, e.m.ioErrors, e.dir, seqLo, seqHi, keys, e.opts.Config, e.opts.BloomFPR)
		},
	}
)

// containsChunk is how many probes the membership kernel resolves at a
// time: the scratch below is sized by it, so a batch of any length costs a
// fixed ~5 KB of pooled working memory.
const containsChunk = 256

type containsScratch struct {
	hash [containsChunk][2]uint64 // each probe's Bloom hash pair, computed once
	live [containsChunk]uint16    // chunk indexes no segment has claimed yet
	pass [containsChunk]uint16    // live indexes that passed one segment's filter
	hit  [containsChunk]bool
}

var containsPool = sync.Pool{New: func() any { return new(containsScratch) }}

// containsBatchIn is the one membership kernel: every Contains of the
// engine, batched or single, and the flush dedupe run through it. It
// reports, per probe, whether some segment of segs serves it — into out
// (len(out) == len(probes); nil when only the count matters) — and returns
// the number of probes served.
//
// The walk is segment-major. Each probe is hashed once; then, newest
// segment first (the most recently flushed runs are the hottest), one
// tight loop takes every still-unresolved probe through the segment's
// min/max fence and Bloom filter — independent loads, one cache line per
// probe with the blocked layout — and only the passers run the segment's
// model. A probe leaves the live list at its first hit (segments are
// disjoint), so the walk ends early once a batch of hits is resolved.
//
// The Bloom funnel (probe → pass → hit; pass−hit is the false positives
// actually paid) is counted per segment per chunk, not per key. Compiled
// out under -tags noobs.
func containsBatchIn[K cmp.Ordered](segs []*segment, ops *keyOps[K], probes []K, out []bool) (hits int) {
	if len(segs) == 0 {
		clear(out)
		return 0
	}
	sc := containsPool.Get().(*containsScratch)
	for base := 0; base < len(probes); base += containsChunk {
		chunk := probes[base:min(base+containsChunk, len(probes))]
		hit, live := sc.hit[:len(chunk)], sc.live[:len(chunk)]
		clear(hit)
		for i, k := range chunk {
			sc.hash[i][0], sc.hash[i][1] = ops.hash(k)
			live[i] = uint16(i)
		}
		for si := len(segs) - 1; si >= 0 && len(live) > 0; si-- {
			s := segs[si]
			lo, hi := ops.fence(s)
			probed, passed, found := 0, 0, 0
			for _, i := range live {
				if k := chunk[i]; k < lo || k > hi {
					continue
				}
				probed++
				if s.filter.MayContainHash(sc.hash[i][0], sc.hash[i][1]) {
					sc.pass[passed] = i
					passed++
				}
			}
			for _, i := range sc.pass[:passed] {
				if ops.has(s, chunk[i]) {
					hit[i] = true
					found++
				}
			}
			if obs.Enabled && probed > 0 {
				s.bloomProbes.Add(uint64(probed))
				s.bloomPass.Add(uint64(passed))
				s.bloomHits.Add(uint64(found))
			}
			if found > 0 {
				hits += found
				w := 0
				for _, i := range live {
					if !hit[i] {
						live[w] = i
						w++
					}
				}
				live = live[:w]
			}
		}
		if out != nil {
			copy(out[base:], hit)
		}
	}
	containsPool.Put(sc)
	return hits
}

// dropServed removes from keys every key a segment of segs already serves,
// in place, preserving order: the flush-side use of the kernel, which is
// what keeps live segments disjoint. With no segment to dedupe against —
// a bulk preload into an empty directory — it touches nothing.
func dropServed[K cmp.Ordered](segs []*segment, ops *keyOps[K], keys []K) []K {
	if len(segs) == 0 {
		return keys
	}
	var hit [containsChunk]bool
	w := 0
	for base := 0; base < len(keys); base += containsChunk {
		chunk := keys[base:min(base+containsChunk, len(keys))]
		containsBatchIn(segs, ops, chunk, hit[:len(chunk)])
		for i, k := range chunk {
			if !hit[i] {
				keys[w] = k
				w++
			}
		}
	}
	clear(keys[w:]) // a dropped string must not stay pinned by the tail
	return keys[:w]
}
