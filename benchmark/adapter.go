package main

// adapter.go is the only file of the benchmark that names a symbol of the
// program under test. Every layer is reached through the thin functions
// below, so when an API is renamed a later benchmark change re-points it
// here and nowhere else. Nothing in this file measures anything.

import (
	"learnedindex/internal/core"
	"learnedindex/internal/keycodec"
	"learnedindex/internal/obs"
	"learnedindex/internal/repl"
	"learnedindex/internal/router"
	"learnedindex/internal/search"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
	"learnedindex/internal/storage"
	"learnedindex/internal/vfs"
)

// The two seams the program exposes, wrapped by countfs.go and countnet.go.
type (
	fsFS         = vfs.FS
	fsFile       = vfs.File
	netTransport = repl.Transport
	netConn      = repl.Conn
	netListener  = repl.Listener
	metrics      = obs.Snapshot
)

var (
	osFS         fsFS         = vfs.OS
	tcpTransport netTransport = repl.TCP
)

func newMemTransport() netTransport { return repl.NewMemTransport() }

// target is the five calls a workload makes, over a store in the process or
// a router in front of a cluster.
type target[K uint64 | string] interface {
	lookup(probes []K) ([]int, error)
	contains(probes []K) ([]bool, error)
	insert(keys []K) error
	scan(lo, hi K, dst []K) ([]K, error)
	count(lo, hi K) (int, error)
}

// store is one serve.Store, in memory or persistent, of either key mode.
type store struct{ s *serve.Store }

// openStore builds a store over keys with the package's default options.
// dir == "" keeps it in memory; otherwise it is persistent under dir on fs.
func openStore[K uint64 | string](keys []K, dir string, fs fsFS) (*store, error) {
	opt := serve.Options{Dir: dir, FS: fs}
	var s *serve.Store
	var err error
	switch keys := any(keys).(type) {
	case []uint64:
		s, err = serve.Open(keys, core.Config{}, opt)
	case []string:
		s, err = serve.OpenString(keys, core.Config{}, opt)
	}
	if err != nil {
		return nil, err
	}
	return &store{s}, nil
}

// openFollower opens a persistent store that replays the primary at addr.
func openFollower(str bool, dir string, fs fsFS, t netTransport, addr string) (*store, error) {
	open := serve.OpenFollower
	if str {
		open = serve.OpenFollowerString
	}
	s, err := open(core.Config{}, serve.Options{Dir: dir, FS: fs}, repl.FollowerOptions{Addr: addr, Transport: t})
	if err != nil {
		return nil, err
	}
	return &store{s}, nil
}

// serveReplication makes the store ship its WAL; it returns the bound address.
func (st *store) serveReplication(t netTransport, addr string) (string, error) {
	p, err := st.s.ServeReplication(t, addr, repl.PrimaryOptions{Epoch: 1})
	if err != nil {
		return "", err
	}
	return p.Addr(), nil
}

func (st *store) close() error      { return st.s.Close() }
func (st *store) flush()            { st.s.Flush() }
func (st *store) length() int       { return st.s.Len() }
func (st *store) metrics() *metrics { return st.s.Metrics() }

func (st *store) stringKeys() bool { return st.s.StringKeys() }

// countAll is the number of keys a scan would see now, unflushed ones included.
func (st *store) countAll() int {
	if st.s.StringKeys() {
		return st.s.CountFromString("")
	}
	return st.s.CountRange(0, ^uint64(0))
}

// followerLag is the follower's own view of how many frames it trails by.
func (st *store) followerLag() uint64 {
	fs, _ := st.s.FollowerStatus()
	return fs.LagFrames
}

func (st *store) followerConnected() bool {
	fs, _ := st.s.FollowerStatus()
	return fs.Connected
}

// storeTarget drives st directly, in the process.
func storeTarget[K uint64 | string](st *store) target[K] {
	var t any = u64Store{st.s}
	if st.s.StringKeys() {
		t = strStore{st.s}
	}
	return t.(target[K])
}

type u64Store struct{ s *serve.Store }

func (t u64Store) lookup(p []uint64) ([]int, error)    { return t.s.LookupBatch(p), nil }
func (t u64Store) contains(p []uint64) ([]bool, error) { return t.s.ContainsBatch(p), nil }
func (t u64Store) insert(k []uint64) error             { return t.s.InsertDurable(k...) }
func (t u64Store) count(lo, hi uint64) (int, error)    { return t.s.CountRange(lo, hi), nil }
func (t u64Store) scan(lo, hi uint64, dst []uint64) ([]uint64, error) {
	return t.s.ScanBatch(lo, hi, dst), nil
}

// strStore: the store has no string batch calls, so a batch is a loop of
// single-key calls, which is also what the wire server does.
type strStore struct{ s *serve.Store }

func (t strStore) lookup(p []string) ([]int, error) {
	out := make([]int, len(p))
	for i, k := range p {
		out[i] = t.s.LookupString(k)
	}
	return out, nil
}

func (t strStore) contains(p []string) ([]bool, error) {
	out := make([]bool, len(p))
	for i, k := range p {
		out[i] = t.s.ContainsString(k)
	}
	return out, nil
}
func (t strStore) insert(k []string) error          { return t.s.InsertDurableString(k...) }
func (t strStore) count(lo, hi string) (int, error) { return t.s.CountRangeString(lo, hi), nil }
func (t strStore) scan(lo, hi string, dst []string) ([]string, error) {
	return t.s.ScanBatchString(lo, hi, dst), nil
}

// scanCursor opens a streaming scan so its open and per-key costs can be
// timed apart; next fills dst and returns how many keys it produced.
func scanCursor[K uint64 | string](st *store, lo, hi K) (next func(dst []K) int, closeScan func()) {
	switch lo := any(lo).(type) {
	case uint64:
		it := st.s.Scan(lo, any(hi).(uint64))
		return any(it.NextBatch).(func([]K) int), it.Close
	default:
		it := st.s.ScanString(lo.(string), any(hi).(string))
		return any(it.NextBatch).(func([]K) int), it.Close
	}
}

// wireServer is one server.Server in front of a store.
type wireServer struct{ s *server.Server }

func startServer(st *store, t netTransport, addr string) (*wireServer, error) {
	s := server.NewServer(st.s, server.Options{})
	if err := s.Serve(t, addr); err != nil {
		return nil, err
	}
	return &wireServer{s}, nil
}

func (w *wireServer) addr() string { return w.s.Addr() }
func (w *wireServer) close() error { return w.s.Close() }

// wireClient is one connection to one server: the single-node rungs of the
// ladder.
type wireClient struct{ c *server.Client }

func dialClient(t netTransport, addr string, str bool) (*wireClient, error) {
	c, err := server.Dial(t, addr, str, server.ClientOptions{})
	if err != nil {
		return nil, err
	}
	return &wireClient{c}, nil
}

func (c *wireClient) close() error { return c.c.Close() }

func clientLookup[K uint64 | string](c *wireClient, probes []K) ([]int, error) {
	switch p := any(probes).(type) {
	case []uint64:
		pos, _, err := c.c.LookupBatch(p)
		return pos, err
	default:
		pos, _, err := c.c.LookupBatchString(p.([]string))
		return pos, err
	}
}

func clientInsert[K uint64 | string](c *wireClient, keys []K) error {
	switch k := any(keys).(type) {
	case []uint64:
		return c.c.Insert(k)
	default:
		return c.c.InsertString(k.([]string))
	}
}

// cluster is a router over the servers at addrs; node i owns the keys in
// [fences[i-1], fences[i]).
type cluster struct{ r *router.Router }

func newRouter[K uint64 | string](addrs []string, fences []K, t netTransport) (*cluster, error) {
	nodes := make([]router.Node, len(addrs))
	for i, a := range addrs {
		nodes[i] = router.Node{Addr: a}
	}
	opt := router.Options{Transport: t}
	switch f := any(fences).(type) {
	case []uint64:
		opt.Fences = f
	case []string:
		opt.FencesStr, opt.StringKeys = f, true
	}
	r, err := router.New(nodes, opt)
	if err != nil {
		return nil, err
	}
	return &cluster{r}, nil
}

func (c *cluster) close() error { return c.r.Close() }

// routerStats is the router's own counters.
type routerStats struct{ rpcs, retries, batches, fanoutBatches, prunedNodes int64 }

func (c *cluster) stats() routerStats {
	s := c.r.Stats()
	return routerStats{s.RPCs, s.Retries, s.Batches, s.FanoutBatches, s.PrunedNodes}
}

func routerTarget[K uint64 | string](c *cluster) target[K] {
	var zero K
	var t any = u64Router{c.r}
	if _, ok := any(zero).(string); ok {
		t = strRouter{c.r}
	}
	return t.(target[K])
}

type u64Router struct{ r *router.Router }

func (t u64Router) lookup(p []uint64) ([]int, error)    { return t.r.LookupBatch(p) }
func (t u64Router) contains(p []uint64) ([]bool, error) { return t.r.ContainsBatch(p) }
func (t u64Router) insert(k []uint64) error             { return t.r.InsertDurable(k...) }
func (t u64Router) count(lo, hi uint64) (int, error)    { return t.r.CountRange(lo, hi) }
func (t u64Router) scan(lo, hi uint64, dst []uint64) ([]uint64, error) {
	return t.r.ScanBatch(lo, hi, dst)
}

type strRouter struct{ r *router.Router }

func (t strRouter) lookup(p []string) ([]int, error)    { return t.r.LookupBatchString(p) }
func (t strRouter) contains(p []string) ([]bool, error) { return t.r.ContainsBatchString(p) }
func (t strRouter) insert(k []string) error             { return t.r.InsertDurableString(k...) }
func (t strRouter) count(lo, hi string) (int, error)    { return t.r.CountRangeString(lo, hi) }
func (t strRouter) scan(lo, hi string, dst []string) ([]string, error) {
	return t.r.ScanBatchString(lo, hi, dst)
}

// engine is a bare storage.Engine: the two lowest rungs of the write ladder.
type engine struct{ e *storage.Engine }

func openEngine(dir string, fs fsFS, str bool) (*engine, error) {
	e, err := storage.Open(dir, storage.Options{FS: fs, StringKeys: str})
	if err != nil {
		return nil, err
	}
	return &engine{e}, nil
}

func (e *engine) close() error { return e.e.Close() }

// engineAppend encodes keys into the WAL without waiting for an fsync.
func engineAppend[K uint64 | string](e *engine, keys []K) error {
	switch k := any(keys).(type) {
	case []uint64:
		return e.e.AppendBatch(k)
	default:
		return e.e.AppendStringBatch(k.([]string))
	}
}

// engineCommit appends keys and returns once an fsync covers them.
func engineCommit[K uint64 | string](e *engine, keys []K) error {
	switch k := any(keys).(type) {
	case []uint64:
		return e.e.CommitBatch(k)
	default:
		return e.e.CommitStringBatch(k.([]string))
	}
}

// index is one RMI trained over all of a workload's keys: the bottom rung of
// the read ladder and the source of the core.* and search.* metrics. For
// string keys the RMI is over the keys' uint64 prefixes.
type index[K uint64 | string] struct {
	lookupBatch func(probes []K, out []int) // the compiled plan, batch form
	lookupOne   func(probe K) int           // the compiled plan, one key
	window      func(probe K) (k uint64, lo, hi, pred int)
	lastMile    func(k uint64, lo, hi, pred int) int // the plan's search strategy
	searchKind  string
	maxAbsErr   int
	meanAbsErr  float64
	sizeBytes   int
	// dict* describe the string suffix dictionary; zero for uint64 keys.
	dictCollisions, dictMaxGroup int
}

func trainIndex[K uint64 | string](keys []K) *index[K] {
	var rmi *core.RMI
	ix := &index[K]{}
	switch keys := any(keys).(type) {
	case []uint64:
		rmi = core.New(keys, core.Config{})
		plan := rmi.Plan()
		ix.lookupBatch = any(plan.LookupBatch).(func([]K, []int))
		ix.lookupOne = any(plan.Lookup).(func(K) int)
		ix.window = any(func(p uint64) (uint64, int, int, int) {
			pred, lo, hi := rmi.Predict(p)
			return p, lo, hi, pred
		}).(func(K) (uint64, int, int, int))
	case []string:
		si := core.NewStringIndex(keys, core.Config{})
		rmi = si.RMI()
		ix.lookupOne = any(si.Lookup).(func(K) int)
		ix.lookupBatch = any(func(probes []string, out []int) {
			for i, p := range probes {
				out[i] = si.Lookup(p)
			}
		}).(func([]K, []int))
		ix.window = any(func(p string) (uint64, int, int, int) {
			k := keycodec.Prefix(p)
			pred, lo, hi := rmi.Predict(k)
			return k, lo, hi, pred
		}).(func(K) (uint64, int, int, int))
		ix.dictCollisions, ix.dictMaxGroup = si.Dict().NumCollisions(), si.Dict().MaxGroup()
	}
	u64 := rmi.Keys()
	kind := rmi.Plan().SearchKind()
	switch kind {
	case core.SearchBinary:
		ix.lastMile = func(k uint64, lo, hi, _ int) int { return search.BranchlessWithExpansion(u64, k, lo, hi) }
	case core.SearchQuaternary:
		ix.lastMile = func(k uint64, lo, hi, pred int) int { return search.BiasedQuaternary(u64, k, lo, hi, pred, 0) }
	case core.SearchExponential:
		ix.lastMile = func(k uint64, _, _, pred int) int { return search.Exponential(u64, k, len(u64), pred) }
	default:
		ix.lastMile = func(k uint64, lo, hi, _ int) int { return search.Interpolated(u64, k, lo, hi) }
	}
	ix.searchKind = kind.String()
	ix.maxAbsErr, ix.meanAbsErr, ix.sizeBytes = rmi.MaxAbsErr(), rmi.MeanAbsErr(), rmi.SizeBytes()
	return ix
}

// keyPrefix is the key codec's order-preserving 8-byte prefix.
func keyPrefix(s string) uint64 { return keycodec.Prefix(s) }

// Metric series of the program's own registry that the benchmark reads.
const (
	mServeSwaps       = "lix_serve_snapshot_swaps_total"
	mServeDrainNs     = "lix_serve_drain_ns"
	mServeQueuedKeys  = "lix_serve_queued_keys"
	mServeInserts     = "lix_serve_inserts_total"
	mStoragePending   = "lix_storage_pending_keys"
	mStorageFlushes   = "lix_storage_flushes_total"
	mStorageCompacts  = "lix_storage_compactions_total"
	mStorageFlushNs   = "lix_storage_flush_ns"
	mStorageCompactNs = "lix_storage_compaction_ns"
	mStorageBackpress = "lix_storage_backpressure_waits_total"
	mStorageSegments  = "lix_storage_segments"
	mStorageTrained   = "lix_storage_models_trained_total"
	mStorageLoaded    = "lix_storage_models_loaded_total"
	mStorageWALSyncs  = "lix_storage_wal_syncs_total"
	mStorageDiskBytes = "lix_storage_disk_bytes"
	mBloomProbes      = "lix_segment_bloom_probes_total"
	mBloomPass        = "lix_segment_bloom_pass_total"
	mBloomHits        = "lix_segment_bloom_hits_total"
	mServerRequestNs  = "lix_server_request_ns"
	mServerTimeouts   = "lix_server_timeouts_total"
	mServerErrors     = "lix_server_errors_total"
	mReplBytesShipped = "lix_repl_bytes_shipped_total"
	mReplLagFrames    = "lix_repl_lag_frames"
)

// sumSeries adds up a counter or gauge over all its label values.
func sumSeries(m *metrics, base string) float64 {
	total := 0.0
	for _, name := range m.Series(base) {
		total += float64(m.Counter(name)) + m.Gauge(name)
	}
	return total
}

// histQuantile merges a histogram over all its label values and returns the
// quantile and the number of observations.
func histQuantile(m *metrics, base string, q float64) (value float64, count uint64) {
	var merged obs.HistSnapshot
	for _, name := range m.Series(base) {
		merged.Merge(m.Histogram(name))
	}
	return merged.Quantile(q), merged.Count
}
