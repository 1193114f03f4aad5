package router

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
)

// The sort-split the router used before it bucketed: sort the batch
// carrying a permutation, then cut the sorted run at the fences. Kept as
// the reference bucket is checked against, and for laying test clusters out.

func sortWithPerm[K cmp.Ordered](probes []K) (sorted []K, perm []int32) {
	perm = make([]int32, len(probes))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return probes[perm[a]] < probes[perm[b]] })
	sorted = make([]K, len(probes))
	for i, p := range perm {
		sorted[i] = probes[p]
	}
	return sorted, perm
}

func splitRuns[K cmp.Ordered](sorted, fences []K) [][2]int {
	runs := make([][2]int, len(fences)+1)
	start := 0
	for i, f := range fences {
		end := start + sort.Search(len(sorted)-start, func(j int) bool { return sorted[start+j] >= f })
		runs[i] = [2]int{start, end}
		start = end
	}
	runs[len(fences)] = [2]int{start, len(sorted)}
	return runs
}

// checkBucket: every node must get exactly the keys the sort-split gave it
// (as a multiset — the bucket keeps batch order, the sort-split key order),
// idx must map each bucketed key back to a slot holding that key, and every
// slot must be covered exactly once.
func checkBucket[K cmp.Ordered](t *testing.T, batch, fences []K) {
	t.Helper()
	b := bucket(batch, fences)
	sorted, _ := sortWithPerm(batch)
	runs := splitRuns(sorted, fences)
	if len(b.start) != len(fences)+2 || b.start[0] != 0 || b.start[len(fences)+1] != len(batch) {
		t.Fatalf("start = %v for %d keys over %d nodes", b.start, len(batch), len(fences)+1)
	}
	seen := make([]bool, len(batch))
	used := 0
	for i, run := range runs {
		got := slices.Clone(b.node(i))
		slices.Sort(got)
		if want := sorted[run[0]:run[1]]; !slices.Equal(got, want) {
			t.Fatalf("node %d owns %v, sort-split gave it %v", i, got, want)
		}
		if b.nonEmpty(i) != (run[1] > run[0]) {
			t.Fatalf("node %d: nonEmpty = %v with run %v", i, b.nonEmpty(i), run)
		}
		if run[1] > run[0] {
			used++
		}
		last := int32(-1)
		for j := b.start[i]; j < b.start[i+1]; j++ {
			slot := b.idx[j]
			if batch[slot] != b.keys[j] || seen[slot] {
				t.Fatalf("idx[%d] = %d: slot holds %v, bucket holds %v, seen %v", j, slot, batch[slot], b.keys[j], seen[slot])
			}
			if slot <= last {
				t.Fatalf("node %d is not in batch order: slot %d after %d", i, slot, last)
			}
			seen[slot], last = true, slot
		}
	}
	if b.used() != used {
		t.Fatalf("used = %d, want %d", b.used(), used)
	}
}

func TestBucketMatchesSortSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fences := []uint64{100, 200, 200 + 1, 1 << 40}
	shapes := map[string][]uint64{
		"empty":       {},
		"one":         {150},
		"on fences":   {100, 200, 201, 1 << 40, 99, 0, ^uint64(0)},
		"single node": {101, 150, 199, 120, 101},
		"empty runs":  {5, 1 << 50, 7, 1 << 41}, // nodes 1..3 own nothing
		"duplicates":  {7, 7, 7, 300, 300, 7, 150, 150, 300},
		"descending":  {1 << 41, 250, 201, 200, 150, 100, 50},
	}
	unsorted := make([]uint64, 500)
	for i := range unsorted {
		unsorted[i] = uint64(rng.Intn(400))
	}
	shapes["unsorted"] = unsorted
	for name, batch := range shapes {
		t.Run(name, func(t *testing.T) {
			checkBucket(t, batch, fences)
			checkBucket(t, batch, nil) // a one-node router has no fences
			strs := make([]string, len(batch))
			for i, k := range batch {
				strs[i] = fmt.Sprintf("k%020d", k)
			}
			checkBucket(t, strs, []string{fmt.Sprintf("k%020d", 100), fmt.Sprintf("k%020d", 200)})
		})
	}
}

// TestRouterSplitPhaseAnswers drives the split-phase scatter/gather over the
// in-memory transport and real TCP, in both key modes, with batch shapes the
// bucket split must not get wrong — unsorted, duplicate-heavy, confined to
// one node, leaving a middle node without a key — and requires the union
// store's answers, plus exactly one node RPC per involved node.
func TestRouterSplitPhaseAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   func() repl.Transport
		addr func(i int) string
	}{
		{"mem", func() repl.Transport { return repl.NewMemTransport() }, func(i int) string { return fmt.Sprintf("n%d", i) }},
		{"tcp", func() repl.Transport { return repl.TCP }, func(int) string { return "127.0.0.1:0" }},
	} {
		t.Run(tc.name+"/uint64", func(t *testing.T) {
			testSplitPhase(t, tc.tr(), tc.addr, func(k uint64) uint64 { return k }, serve.New,
				(*serve.Store).LookupBatch, (*serve.Store).ContainsBatch,
				func(o *Options, f []uint64) { o.Fences = f },
				(*Router).LookupBatch, (*Router).ContainsBatch, (*Router).CountRange)
		})
		t.Run(tc.name+"/string", func(t *testing.T) {
			testSplitPhase(t, tc.tr(), tc.addr, func(k uint64) string { return fmt.Sprintf("k%08d", k) }, serve.NewString,
				func(s *serve.Store, p []string) []int {
					out := make([]int, len(p))
					for i, k := range p {
						out[i] = s.LookupString(k)
					}
					return out
				},
				func(s *serve.Store, p []string) []bool {
					out := make([]bool, len(p))
					for i, k := range p {
						out[i] = s.ContainsString(k)
					}
					return out
				},
				func(o *Options, f []string) { o.FencesStr, o.StringKeys = f, true },
				(*Router).LookupBatchString, (*Router).ContainsBatchString, (*Router).CountRangeString)
		})
	}
}

func testSplitPhase[K cmp.Ordered](
	t *testing.T, tr repl.Transport, addr func(int) string, key func(uint64) K,
	newStore func([]K, core.Config, serve.Options) *serve.Store,
	wantLookup func(*serve.Store, []K) []int, wantContains func(*serve.Store, []K) []bool,
	setFences func(*Options, []K),
	lookup func(*Router, []K) ([]int, error), contains func(*Router, []K) ([]bool, error),
	count func(*Router, K, K) (int, error),
) {
	rng := rand.New(rand.NewSource(11))
	var keys []K
	for i := 0; i < 3000; i++ {
		keys = append(keys, key(uint64(rng.Intn(30000))*3))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	fences := []K{key(30000), key(60000)}
	nodes := make([]Node, 3)
	for i, run := range splitRuns(keys, fences) {
		st := newStore(slices.Clone(keys[run[0]:run[1]]), core.Config{}, serve.Options{Shards: 2})
		defer st.Close()
		srv := server.NewServer(st, server.Options{})
		if err := srv.Serve(tr, addr(i)); err != nil {
			t.Fatalf("serve node %d: %v", i, err)
		}
		defer srv.Close()
		nodes[i].Addr = srv.Addr()
	}
	oracle := newStore(keys, core.Config{}, serve.Options{Shards: 4})
	defer oracle.Close()
	opt := Options{Transport: tr}
	setFences(&opt, fences)
	rt, err := New(nodes, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	draw := func(n int, lo, hi uint64) []K {
		out := make([]K, n)
		for i := range out {
			out[i] = key(lo + uint64(rng.Int63n(int64(hi-lo))))
		}
		return out
	}
	dups := draw(8, 0, 90000)
	for len(dups) < 200 {
		dups = append(dups, dups[rng.Intn(8)])
	}
	for _, tc := range []struct {
		name     string
		batch    []K
		involved int // nodes owning a key of the batch
	}{
		{"unsorted", draw(300, 0, 95000), 3},
		{"duplicates", dups, -1},
		{"single node", draw(64, 30000, 60000), 1},
		{"empty run", append(draw(40, 0, 30000), draw(40, 60000, 95000)...), 2},
		{"fences", []K{key(60000), key(30000), key(29999), key(59999), key(0)}, 3},
		{"empty", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := rt.Stats()
			pos, err := lookup(rt, tc.batch)
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			if want := wantLookup(oracle, tc.batch); !slices.Equal(pos, want) {
				t.Fatalf("lookup = %v, union store says %v", pos, want)
			}
			mid := rt.Stats()
			if got := mid.RPCs - before.RPCs; got != 3 {
				t.Fatalf("lookup issued %d node RPCs, want one per node (3)", got)
			}
			bs, err := contains(rt, tc.batch)
			if err != nil {
				t.Fatalf("contains: %v", err)
			}
			if want := wantContains(oracle, tc.batch); !slices.Equal(bs, want) {
				t.Fatalf("contains = %v, union store says %v", bs, want)
			}
			after := rt.Stats()
			if got := after.RPCs - mid.RPCs; tc.involved >= 0 && got != int64(tc.involved) {
				t.Fatalf("contains issued %d node RPCs, want %d", got, tc.involved)
			}
			if after.Retries != 0 {
				t.Fatalf("%d retries on a healthy cluster", after.Retries)
			}
		})
	}
	total, err := count(rt, key(0), key(200000))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if total != len(keys) {
		t.Fatalf("count over everything = %d, want %d", total, len(keys))
	}
}

// hangTransport makes the first connection dialled to addr go deaf after
// its handshake: every later Write is swallowed, so the server never sees a
// request and the client never gets an answer.
type hangTransport struct {
	repl.Transport
	addr string
	used bool
}

func (h *hangTransport) Dial(addr string) (repl.Conn, error) {
	c, err := h.Transport.Dial(addr)
	if err == nil && addr == h.addr && !h.used {
		h.used = true
		c = &deafConn{Conn: c}
	}
	return c, err
}

type deafConn struct {
	repl.Conn
	writes int
}

func (c *deafConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 1 {
		return c.Conn.Write(p) // the hello
	}
	return len(p), nil
}

// TestRouterClientTimeoutRetries: a node whose connection swallows the
// request costs the caller one ClientTimeout — measured from the request's
// start — after which the retry reaches the node on a fresh connection and
// the call succeeds.
func TestRouterClientTimeoutRetries(t *testing.T) {
	mem := repl.NewMemTransport()
	cl := startCluster(t, mem, []uint64{1, 2, 3, 1001, 2001}, []uint64{1000, 2000})
	const timeout = 60 * time.Millisecond
	rt, err := New(clusterNodes(3), Options{
		Transport:     &hangTransport{Transport: mem, addr: "n1"},
		Fences:        []uint64{1000, 2000},
		ClientTimeout: timeout,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	probes := []uint64{2001, 1001, 5, 1}
	start := time.Now()
	bs, err := rt.ContainsBatch(probes)
	took := time.Since(start)
	if err != nil {
		t.Fatalf("ContainsBatch: %v", err)
	}
	if want := cl.oracle.ContainsBatch(probes); !slices.Equal(bs, want) {
		t.Fatalf("ContainsBatch = %v, want %v", bs, want)
	}
	if took < timeout || took > 20*timeout {
		t.Fatalf("call took %v with a %v client timeout", took, timeout)
	}
	if st := rt.Stats(); st.Retries != 1 || st.NodeRPCs[1] != 2 || st.RPCs != 4 {
		t.Fatalf("retries = %d, node 1 RPCs = %d, RPCs = %d; want 1, 2 and 4", st.Retries, st.NodeRPCs[1], st.RPCs)
	}
}

// TestRouterAllocsPerCall guards the allocation diet: a warmed 64-key call
// through a 3-node router over the in-memory transport — bucketing, three
// split-phase RPCs, three servers decoding, answering and encoding —
// allocates a bounded handful of objects (51 per call before the diet).
func TestRouterAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 30000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(3_000_000))
	}
	fences := []uint64{1_000_000, 2_000_000}
	tr := repl.NewMemTransport()
	startCluster(t, tr, keys, fences)
	rt, err := New(clusterNodes(3), Options{Transport: tr, Fences: fences})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	probes := make([]uint64, 64)
	for i := range probes {
		probes[i] = uint64(rng.Intn(3_000_000))
	}

	// The string twin: the same cluster shape over string stores. A node
	// decodes a read request's keys with one copy of the key region, so the
	// string calls pay a fixed handful over the uint64 ones, not one
	// allocation per key.
	strKey := func(k uint64) string { return fmt.Sprintf("doc-%010d", k) }
	skeys := make([]string, len(keys))
	for i, k := range keys {
		skeys[i] = strKey(k)
	}
	slices.Sort(skeys)
	skeys = slices.Compact(skeys)
	sfences := []string{strKey(fences[0]), strKey(fences[1])}
	for i, run := range splitRuns(skeys, sfences) {
		st := serve.NewString(slices.Clone(skeys[run[0]:run[1]]), core.Config{}, serve.Options{Shards: 2})
		defer st.Close()
		srv := server.NewServer(st, server.Options{})
		if err := srv.Serve(tr, fmt.Sprintf("s%d", i)); err != nil {
			t.Fatalf("serve string node %d: %v", i, err)
		}
		defer srv.Close()
	}
	srt, err := New([]Node{{Addr: "s0"}, {Addr: "s1"}, {Addr: "s2"}}, Options{Transport: tr, StringKeys: true, FencesStr: sfences})
	if err != nil {
		t.Fatal(err)
	}
	defer srt.Close()
	sprobes := make([]string, len(probes))
	for i, k := range probes {
		sprobes[i] = strKey(k)
	}

	for _, tc := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"LookupBatch", 20, func() error { _, err := rt.LookupBatch(probes); return err }},
		{"ContainsBatch", 16, func() error { _, err := rt.ContainsBatch(probes); return err }},
		{"LookupBatchString", 16, func() error { _, err := srt.LookupBatchString(sprobes); return err }},
		{"ContainsBatchString", 16, func() error { _, err := srt.ContainsBatchString(sprobes); return err }},
	} {
		for i := 0; i < 10; i++ { // warm pools, buffers and scratch
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		})
		t.Logf("%s: %.1f allocs per call", tc.name, got)
		if got > tc.max {
			t.Errorf("%s allocates %.1f objects per call, want at most %v", tc.name, got, tc.max)
		}
	}
}
