package serve

// String-keyed serving: the same range-sharded RCU architecture as the
// uint64 store, generalized over the order-preserving key codec
// (internal/keycodec). Each shard's published snapshot is a
// core.StringIndex — the prefix RMI plus the suffix dictionary, whose
// pointer-free arena is the only place the shard's keys live — and shard
// boundaries are split *strings* picked from the initial key space, so
// routing stays a binary search over the bounds in key order (Prefix is
// order-preserving, so prefix order and string order agree wherever routing
// needs them to).
//
// The consistency model, drain machinery, and scan capture discipline are
// the uint64 store's, unchanged; only the key domain differs. A persistent
// string store (Options.Dir) rides the storage engine's string mode:
// string WAL frames, version-2 segment files, and codec-index reads.

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/slicepool"
	"learnedindex/internal/storage"
)

// newStrSnapshot trains the codec index a string shard publishes as its
// immutable state; the key bytes are copied into it. workers follows
// newSnapshot's budget discipline.
func newStrSnapshot(keys []string, cfg core.Config, workers int) *core.StringIndex {
	if workers > 0 {
		return core.NewStringIndexWorkers(keys, cfg, workers)
	}
	return core.NewStringIndex(keys, cfg)
}

// strShard mirrors shard in the string domain; see shard for the field
// contracts (buf/draining visibility, merge gating).
type strShard struct {
	snap     atomic.Pointer[core.StringIndex]
	mergeMu  sync.Mutex
	merging  atomic.Bool
	mu       sync.Mutex
	buf      []string
	draining []string
}

// NewString builds a string-keyed Store over the initial keys (any order;
// duplicates dropped), the codec twin of New. Panics on an engine error
// when opt.Dir is set; use OpenString to handle it.
func NewString(keys []string, cfg core.Config, opt Options) *Store {
	s, err := OpenString(keys, cfg, opt)
	if err != nil {
		panic(fmt.Sprintf("serve.NewString: %v (use serve.OpenString to handle storage errors)", err))
	}
	return s
}

// OpenString builds a string-keyed Store like NewString, returning engine
// errors instead of panicking. With opt.Dir set it opens (or recovers) the
// persistent engine in string mode — v2 segment files, string WAL —
// re-serves everything durable from the deserialized codec indexes, and
// bulk-loads the initial keys as one v2 segment file, as Open does.
func OpenString(keys []string, cfg core.Config, opt Options) (*Store, error) {
	if opt.Dir != "" {
		return openPersistent(keys, (*storage.Engine).BulkLoadStrings, cfg, opt)
	}
	return newInMemoryStr(keys, cfg, opt)
}

func newInMemoryStr(keys []string, cfg core.Config, opt Options) (*Store, error) {
	nsh := opt.Shards
	if nsh <= 0 {
		nsh = 8
	}
	thresh := opt.MergeThreshold
	if thresh <= 0 {
		thresh = 4096
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)

	s := &Store{
		strKeys:    true,
		cfg:        cfg,
		thresh:     thresh,
		mergeCh:    make(chan int, nsh),
		quit:       make(chan struct{}),
		retrainSem: make(chan struct{}, maxConcurrentRetrains()),
	}
	n := len(sorted)
	if n > 0 && nsh > 1 {
		s.boundsS = make([]string, 0, nsh-1)
		for i := 1; i < nsh; i++ {
			s.boundsS = append(s.boundsS, sorted[i*n/nsh])
		}
	}
	s.shardsS = make([]*strShard, nsh)
	lo := 0
	for i := range s.shardsS {
		hi := n
		if i < len(s.boundsS) {
			hi = sort.SearchStrings(sorted[:n], s.boundsS[i])
			if hi < lo {
				hi = lo
			}
		}
		part := sorted[lo:hi:hi]
		sh := &strShard{}
		sh.snap.Store(newStrSnapshot(part, cfg, 0))
		s.shardsS[i] = sh
		lo = hi
	}
	if err := s.initObs(obs.NewRegistry(), nsh, opt.MetricsAddr); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.merger()
	return s, nil
}

// shardForString routes a string key to its range partition.
func (s *Store) shardForString(key string) int {
	return sort.Search(len(s.boundsS), func(i int) bool { return key < s.boundsS[i] })
}

// InsertString buffers a string key for its shard, waking the merger past
// the threshold — Insert in the codec domain, with the same visibility
// contract (readable at the next drain or Flush; durable on a persistent
// store at the next Sync).
func (s *Store) InsertString(key string) {
	if !s.strKeys {
		panic("serve: string insert on a uint64-keyed store")
	}
	if s.repl.follower != nil {
		panic("serve: insert on a follower store (writes go to the primary)")
	}
	s.m.inserts.Inc()
	if s.eng != nil {
		if s.eng.AppendString(key) == nil { // an error is sticky; reported by Sync/Close
			s.wakeOnPending()
		}
		return
	}
	i := s.shardForString(key)
	sh := s.shardsS[i]
	sh.mu.Lock()
	if sh.buf == nil {
		sh.buf = getStrShardBuf()
	}
	sh.buf = append(sh.buf, key)
	full := len(sh.buf) >= s.thresh
	sh.mu.Unlock()
	if full {
		select {
		case s.mergeCh <- i:
		default:
		}
	}
}

// InsertDurableString inserts string keys and returns once they are
// crash-durable, riding the engine's group-commit plane like
// InsertDurable. On an in-memory store the keys are simply inserted.
func (s *Store) InsertDurableString(keys ...string) error {
	if !s.strKeys {
		panic("serve: string insert on a uint64-keyed store")
	}
	if s.repl.follower != nil {
		return ErrFollowerStore
	}
	if s.eng == nil {
		for _, k := range keys {
			s.InsertString(k)
		}
		return nil
	}
	s.m.inserts.Add(int64(len(keys)))
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	if err := s.eng.CommitStringBatch(keys); err != nil {
		return err
	}
	if obs.Enabled {
		s.m.insertNs.ObserveDuration(time.Since(start))
	}
	s.wakeOnPending()
	return nil
}

// strShardBufPool recycles drained string insert buffers. Entries are
// zeroed on return so a pooled buffer never pins drained key bytes.
var strShardBufPool slicepool.Pool[string]

func getStrShardBuf() []string { return strShardBufPool.Get() }
func putStrShardBuf(b []string) {
	for i := range b {
		b[i] = ""
	}
	strShardBufPool.Put(b)
}

// dispatchDrainStr is dispatchDrain for an in-memory string shard.
func (s *Store) dispatchDrainStr(i int) {
	sh := s.shardsS[i]
	if !sh.merging.CompareAndSwap(false, true) {
		return
	}
	s.drainWG.Add(1)
	go func() {
		defer s.drainWG.Done()
		s.drainStr(i)
		sh.merging.Store(false)
		sh.mu.Lock()
		over := len(sh.buf) >= s.thresh
		sh.mu.Unlock()
		if over {
			select {
			case s.mergeCh <- i:
			default:
			}
		}
	}()
}

// drainStr merges string shard i's buffer into a fresh snapshot and
// publishes it — drain's codec twin, with the identical capture and
// buffer-recycling discipline.
func (s *Store) drainStr(i int) {
	sh := s.shardsS[i]
	sh.mergeMu.Lock()
	defer sh.mergeMu.Unlock()
	sh.mu.Lock()
	buf := sh.buf
	sh.buf = nil
	if len(buf) > 0 {
		sh.draining = buf
	}
	sh.mu.Unlock()
	if len(buf) == 0 {
		return
	}
	release := func(work []string) {
		sh.mu.Lock()
		sh.draining = nil
		sh.mu.Unlock()
		putStrShardBuf(buf)
		putStrShardBuf(work)
	}
	s.retrainSem <- struct{}{}
	defer func() { <-s.retrainSem }()
	var drainStart time.Time
	if obs.Enabled {
		drainStart = time.Now()
	}
	work := append(getStrShardBuf(), buf...)
	slices.Sort(work)
	deduped := slices.Compact(work)
	// The published keys become strings only for this merge: one run out of
	// the dictionary's arena, let go once the new index has copied it.
	cur := sh.snap.Load()
	merged := mergeDedup(cur.Dict().AppendKeys(nil, 0, cur.Len()), deduped)
	if len(merged) == cur.Len() {
		release(work)
		return
	}
	var trainStart time.Time
	if obs.Enabled {
		trainStart = time.Now()
	}
	snap := newStrSnapshot(merged, s.cfg, s.retrainWorkers())
	if obs.Enabled {
		s.m.trainNs[i].ObserveDuration(time.Since(trainStart))
	}
	sh.snap.Store(snap)
	s.m.swaps.Inc()
	release(work)
	if obs.Enabled {
		s.m.drainNs[i].ObserveDuration(time.Since(drainStart))
	}
}

// LookupString returns the global lower-bound position of key over the
// committed view in codec (byte) order: the index of the first committed
// key >= key. Metrics are 1-in-64 sampled like Lookup, but through the
// store's shared Sampler — a string key has no cheap hash to slice — so
// an unsampled call pays one sharded atomic add.
func (s *Store) LookupString(key string) int {
	if !s.strKeys {
		panic("serve: string read on a uint64-keyed store")
	}
	if s.m.sampler.Tick() {
		s.m.lookups.Add(64)
		if obs.Enabled {
			start := time.Now()
			pos := s.lookupStrPos(key)
			s.m.lookupNs.ObserveDuration(time.Since(start))
			return pos
		}
	}
	return s.lookupStrPos(key)
}

func (s *Store) lookupStrPos(key string) int {
	if s.eng != nil {
		return s.eng.LookupString(key)
	}
	i := s.shardForString(key)
	total := 0
	for j := 0; j < i; j++ {
		total += s.shardsS[j].snap.Load().Len()
	}
	return total + s.shardsS[i].snap.Load().Lookup(key)
}

// ContainsString reports whether a string key is committed.
func (s *Store) ContainsString(key string) bool {
	if !s.strKeys {
		panic("serve: string read on a uint64-keyed store")
	}
	if s.eng != nil {
		return s.eng.ContainsString(key)
	}
	return s.shardsS[s.shardForString(key)].snap.Load().Contains(key)
}

// LookupBatchString is LookupBatch for a string-keyed store: every probe,
// in probe order, against one consistent captured view, through the same
// kernels — core.LookupBatchStrings over every shard's codec index in
// memory, the engine's rank kernel over one captured segment list on a
// persistent store — and counted in the same batch metrics.
func (s *Store) LookupBatchString(probes []string) []int {
	if !s.strKeys {
		panic("serve: string read on a uint64-keyed store")
	}
	s.m.batches.Inc()
	s.m.batchLen.Observe(uint64(len(probes)))
	if obs.Enabled && s.m.sampler.Tick() {
		start := time.Now()
		out := s.lookupBatchStr(probes)
		s.m.batchNs.ObserveDuration(time.Since(start))
		return out
	}
	return s.lookupBatchStr(probes)
}

func (s *Store) lookupBatchStr(probes []string) []int {
	out := make([]int, len(probes))
	if len(probes) == 0 {
		return out
	}
	if s.eng != nil {
		s.eng.LookupBatchString(probes, out)
		return out
	}
	var ibuf [stackShards]*core.StringIndex
	var sbuf [stackProbes]int32
	idx, sel := s.captureBatchStr(ibuf[:0], sbuf[:0], probes)
	core.LookupBatchStrings(idx, sel, probes, out)
	// Shard-local to global: add the key count of the shards before.
	var obuf [stackShards]int
	offs, total := obuf[:0], 0
	for _, si := range idx {
		offs = append(offs, total)
		total += si.Len()
	}
	for i, sh := range sel {
		out[i] += offs[sh]
	}
	return out
}

// captureBatchStr is captureBatch in the string domain: every shard's
// published codec index, one atomic load each, taken once, and each
// probe's shard.
func (s *Store) captureBatchStr(idx []*core.StringIndex, sel []int32, probes []string) ([]*core.StringIndex, []int32) {
	for _, sh := range s.shardsS {
		idx = append(idx, sh.snap.Load())
	}
	if len(probes) > cap(sel) {
		sel = make([]int32, len(probes))
	}
	sel = sel[:len(probes)]
	for i, k := range probes {
		sel[i] = int32(s.shardForString(k))
	}
	return idx, sel
}

// ContainsBatchString reports membership for every probe, in probe order,
// against one consistent captured view, like ContainsBatch: a persistent
// store walks one captured segment list; an in-memory store ranks the
// batch through core.LookupBatchStrings and tests each answer against the
// key at that position of its shard's dictionary.
func (s *Store) ContainsBatchString(probes []string) []bool {
	if !s.strKeys {
		panic("serve: string read on a uint64-keyed store")
	}
	out := make([]bool, len(probes))
	if len(probes) == 0 {
		return out
	}
	if s.eng != nil {
		s.eng.ContainsBatchString(probes, out)
		return out
	}
	var ibuf [stackShards]*core.StringIndex
	var sbuf [stackProbes]int32
	var pbuf [stackProbes]int
	idx, sel := s.captureBatchStr(ibuf[:0], sbuf[:0], probes)
	pos := pbuf[:]
	if len(probes) > len(pos) {
		pos = make([]int, len(probes))
	}
	pos = pos[:len(probes)]
	core.LookupBatchStrings(idx, sel, probes, pos)
	for i, k := range probes {
		out[i] = idx[sel[i]].Dict().Equal(pos[i], k)
	}
	return out
}
