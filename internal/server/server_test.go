package server

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
)

func startServer(t *testing.T, st *serve.Store, opt Options) (*Server, *repl.MemTransport) {
	t.Helper()
	tr := repl.NewMemTransport()
	srv := NewServer(st, opt)
	if err := srv.Serve(tr, "node0"); err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, tr
}

func TestServerRoundTripUint64(t *testing.T) {
	keys := make([]uint64, 0, 2000)
	for i := 0; i < 2000; i++ {
		keys = append(keys, uint64(i)*10)
	}
	st := serve.New(keys, core.Config{}, serve.Options{Shards: 4})
	defer st.Close()
	_, tr := startServer(t, st, Options{})

	c, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if c.Follower() {
		t.Fatal("primary store reported follower=true")
	}

	rng := rand.New(rand.NewSource(1))
	probes := make([]uint64, 500)
	for i := range probes {
		probes[i] = uint64(rng.Intn(25000))
	}
	pos, n, err := c.LookupBatch(probes)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if n != st.Len() {
		t.Fatalf("storeLen = %d, want %d", n, st.Len())
	}
	want := st.LookupBatch(probes)
	if !slices.Equal(pos, want) {
		t.Fatal("LookupBatch mismatch vs in-process store")
	}

	bs, err := c.ContainsBatch(probes)
	if err != nil {
		t.Fatalf("contains: %v", err)
	}
	if !slices.Equal(bs, st.ContainsBatch(probes)) {
		t.Fatal("ContainsBatch mismatch vs in-process store")
	}

	// Paged scan over the whole range must re-assemble exactly.
	var got []uint64
	lo := uint64(0)
	for {
		page, more, err := c.Scan(lo, 25000, true, 300)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		got = append(got, page...)
		if !more {
			break
		}
		lo = page[len(page)-1] + 1
	}
	if want := st.ScanBatch(0, 25000, nil); !slices.Equal(got, want) {
		t.Fatalf("paged scan: %d keys, want %d", len(got), len(want))
	}

	cnt, err := c.CountRange(100, 10000, true)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if want := st.CountRange(100, 10000); cnt != want {
		t.Fatalf("CountRange = %d, want %d", cnt, want)
	}

	if err := c.Insert([]uint64{5, 15, 25}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	st.Flush()
	for _, k := range []uint64{5, 15, 25} {
		if !st.Contains(k) {
			t.Fatalf("inserted key %d missing", k)
		}
	}

	status, err := c.StatusRPC()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if status.Follower {
		t.Fatal("status says follower")
	}
	if status.Len != st.Len() {
		t.Fatalf("status len = %d, want %d", status.Len, st.Len())
	}
}

func TestServerRoundTripString(t *testing.T) {
	keys := make([]string, 0, 500)
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("k%05d", i*7))
	}
	st := serve.NewString(keys, core.Config{}, serve.Options{Shards: 4})
	defer st.Close()
	_, tr := startServer(t, st, Options{})

	c, err := Dial(tr, "node0", true, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	probes := []string{"k00000", "k00007", "k00008", "zzz", "", "k03493"}
	pos, n, err := c.LookupBatchString(probes)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if n != st.Len() {
		t.Fatalf("storeLen = %d, want %d", n, st.Len())
	}
	// The server answers a string lookup as one batch: counted once in the
	// batch series, sized by its probes, and not as len(probes) single-key
	// lookups.
	m := st.Metrics()
	if b, l := m.Counter("lix_serve_lookup_batches_total"), m.Counter("lix_serve_lookups_total"); b != 1 || l != 0 {
		t.Fatalf("one wire lookup counted %d batches and %d single-key lookups, want 1 and 0", b, l)
	}
	if h := m.Histogram("lix_serve_lookup_batch_probes"); obs.Enabled && h.Count != 1 {
		t.Fatalf("batch size histogram observed %d batches, want 1", h.Count)
	}
	for i, p := range probes {
		if pos[i] != st.LookupString(p) {
			t.Fatalf("probe %q: pos %d, want %d", p, pos[i], st.LookupString(p))
		}
	}

	bs, err := c.ContainsBatchString(probes)
	if err != nil {
		t.Fatalf("contains: %v", err)
	}
	for i, p := range probes {
		if bs[i] != st.ContainsString(p) {
			t.Fatalf("probe %q: contains %v", p, bs[i])
		}
	}

	// Paged bounded scan and open-ended scan.
	var got []string
	lo := ""
	for {
		page, more, err := c.ScanString(lo, "k00100", true, 3)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		got = append(got, page...)
		if !more {
			break
		}
		lo = page[len(page)-1] + "\x00"
	}
	if want := st.ScanBatchString("", "k00100", nil); !slices.Equal(got, want) {
		t.Fatalf("paged string scan mismatch: %v vs %v", got, want)
	}
	all, more, err := c.ScanString("k03000", "", false, 10000)
	if err != nil || more {
		t.Fatalf("open scan: err=%v more=%v", err, more)
	}
	cnt, err := c.CountRangeString("k03000", "", false)
	if err != nil {
		t.Fatalf("count from: %v", err)
	}
	if cnt != len(all) || cnt != st.CountFromString("k03000") {
		t.Fatalf("CountFrom = %d, scan saw %d, store says %d", cnt, len(all), st.CountFromString("k03000"))
	}

	if err := c.InsertString([]string{"aaa", "bbb"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	st.Flush()
	if !st.ContainsString("aaa") || !st.ContainsString("bbb") {
		t.Fatal("inserted string keys missing")
	}
}

func TestServerModeMismatchHandshake(t *testing.T) {
	st := serve.New([]uint64{1, 2, 3}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	_, tr := startServer(t, st, Options{})

	_, err := Dial(tr, "node0", true, ClientOptions{})
	if err == nil {
		t.Fatal("string-mode dial of a uint64 store succeeded")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

func TestServerModeGuards(t *testing.T) {
	st := serve.New([]uint64{1}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	_, tr := startServer(t, st, Options{})
	c, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, _, err := c.LookupBatchString([]string{"a"}); !errors.Is(err, errMode) {
		t.Fatalf("want errMode, got %v", err)
	}
	if err := c.InsertString([]string{"a"}); !errors.Is(err, errMode) {
		t.Fatalf("want errMode, got %v", err)
	}
}

// TestServerGracefulDrain: Close must let an in-flight request finish and
// flush its response before the connection dies.
func TestServerGracefulDrain(t *testing.T) {
	st := serve.New([]uint64{1, 2, 3}, core.Config{}, serve.Options{Shards: 1})
	defer st.Close()
	srv, tr := startServer(t, st, Options{DrainTimeout: 2 * time.Second})

	c, err := Dial(tr, "node0", false, ClientOptions{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	type result struct {
		bs  []bool
		err error
	}
	res := make(chan result, 1)
	go func() {
		bs, err := c.ContainsBatch([]uint64{1, 9})
		res <- result{bs, err}
	}()
	// Let the request hit the server, then close concurrently: either the
	// request completes with a correct answer (drained) or it fails with a
	// transport error — it must never return a wrong answer.
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	r := <-res
	<-done
	if r.err == nil {
		if !r.bs[0] || r.bs[1] {
			t.Fatalf("drained request returned wrong answer: %v", r.bs)
		}
	}
	// After Close, new RPCs on the old conn must fail.
	if _, err := c.ContainsBatch([]uint64{1}); err == nil {
		t.Fatal("RPC after server Close succeeded")
	}
	// And the metrics plane must show the server series.
	snap := st.Metrics()
	if snap.Counter("lix_server_accepts_total") == 0 {
		t.Fatal("lix_server_accepts_total not registered/bumped")
	}
}

// TestServerInflightBound: more concurrent requests than MaxInflight must
// all complete (queued, not rejected).
func TestServerInflightBound(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	st := serve.New(keys, core.Config{}, serve.Options{Shards: 2})
	defer st.Close()
	_, tr := startServer(t, st, Options{MaxInflight: 2})

	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			c, err := Dial(tr, "node0", false, ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				if _, err := c.ContainsBatch([]uint64{uint64(g*20 + i)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
}
