package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
)

// metricsKey renders k as a string store's key in key order, with the
// digits that vary inside the 8-byte codec prefix: string lookups feed the
// plan's model-health sampling by prefix (obs.SampleKey), so keys sharing
// one prefix would all be sampled or all be skipped together.
func metricsKey(k uint64) string { return fmt.Sprintf("%08d", k) }

// TestStoreMetrics drives the serving layer's surfaces through an
// in-memory store of each key mode and asserts the metrics plane recorded
// them: traffic counters exactly, sampled series within their sampling
// contract, and the engine's flush, queue and per-segment model-health
// series present.
func TestStoreMetrics(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		name := "uint64"
		if strMode {
			name = "string"
		}
		t.Run(name, func(t *testing.T) { checkStoreMetrics(t, strMode) })
	}
}

func checkStoreMetrics(t *testing.T, strMode bool) {
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i) * 3
	}
	opt := Options{MergeThreshold: 1 << 20}
	var (
		st          *Store
		insert      func(uint64)
		lookup      func(uint64)
		lookupBatch func([]uint64)
		scanRange   func(lo, hi uint64)
	)
	if strMode {
		skeys := make([]string, len(keys))
		for i, k := range keys {
			skeys[i] = metricsKey(k)
		}
		st = NewString(skeys, core.Config{}, opt)
		insert = func(k uint64) { st.InsertString(metricsKey(k)) }
		lookup = func(k uint64) { st.LookupString(metricsKey(k)) }
		lookupBatch = func(ks []uint64) {
			probes := make([]string, len(ks))
			for i, k := range ks {
				probes[i] = metricsKey(k)
			}
			st.LookupBatchString(probes)
		}
		scanRange = func(lo, hi uint64) {
			it := st.ScanString(metricsKey(lo), metricsKey(hi))
			for it.Next() {
			}
			it.Close()
		}
	} else {
		st = New(keys, core.Config{}, opt)
		insert, lookup = st.Insert, func(k uint64) { st.Lookup(k) }
		lookupBatch = func(ks []uint64) { st.LookupBatch(ks) }
		scanRange = func(lo, hi uint64) {
			it := st.Scan(lo, hi)
			for it.Next() {
			}
			it.Close()
		}
	}
	defer st.Close()
	if st.Registry() == nil {
		t.Fatal("Registry() is nil")
	}

	const inserts = 1000
	for i := 0; i < inserts; i++ {
		insert(uint64(i)*3 + 1)
	}
	st.Flush()

	for i := 0; i < 2048; i++ {
		lookup(uint64(i))
	}
	const batches = 32
	probe := make([]uint64, 16)
	for b := 0; b < batches; b++ {
		for j := range probe {
			probe[j] = uint64(b*16 + j)
		}
		lookupBatch(probe)
	}
	const scans = 8
	for i := 0; i < scans; i++ {
		scanRange(0, 500)
	}

	s := st.Metrics()
	if got := s.Counter("lix_serve_inserts_total"); got != inserts {
		t.Fatalf("inserts counter = %d, want %d", got, inserts)
	}
	publications := s.Counter("lix_storage_flushes_total") + s.Counter("lix_storage_drains_total")
	if publications != int64(st.Merges()) || publications < 2 { // the bulk load and the Flush
		t.Fatalf("flush+drain counters = %d, Merges() = %d", publications, st.Merges())
	}
	if got := s.Counter("lix_serve_lookup_batches_total"); got != batches {
		t.Fatalf("batches counter = %d, want %d", got, batches)
	}
	if got := s.Counter("lix_serve_scans_total"); got != scans {
		t.Fatalf("scans counter = %d, want %d", got, scans)
	}
	// Single-key lookups are 1-in-64 sampled (over the key space for
	// uint64 keys, by the shared sampler for strings): 2048 lookups must
	// sample some, and the estimate is the sampled hits times 64.
	if got := s.Counter("lix_serve_lookups_total"); got == 0 || got%64 != 0 {
		t.Fatalf("sampled lookups counter = %d, want a nonzero multiple of 64", got)
	}
	if got := s.Gauge("lix_storage_pending_keys"); got != 0 {
		t.Fatalf("%g keys pending after Flush", got)
	}
	// Model health: every segment publishes its trained error bound (the
	// collector reads it off the live plan in both builds), beside the
	// engine-wide maximum.
	segs := int(s.Gauge("lix_storage_segments"))
	if bs := s.Series("lix_segment_trained_err_bound"); segs == 0 || len(bs) != segs {
		t.Fatalf("trained-err-bound series = %v, want one per segment (%d)", bs, segs)
	}
	if _, ok := s.Gauges["lix_storage_trained_err_bound"]; !ok {
		t.Fatal("engine-wide trained-err-bound gauge missing")
	}

	if !obs.Enabled {
		return
	}
	// Sampled model-health histograms: the plans' own 1-in-64 key sampling
	// (by the 8-byte prefix for strings) observed their error and window.
	if h := s.Histogram("lix_storage_model_err"); h.Count == 0 {
		t.Fatalf("aggregate model-error histogram empty after sampled lookups")
	}
	if h := s.Histogram("lix_storage_search_window"); h.Count == 0 {
		t.Fatalf("aggregate search-window histogram empty after sampled lookups")
	}
	if h := s.Histogram("lix_serve_lookup_batch_probes"); h.Count != batches {
		t.Fatalf("batch-size histogram count = %d, want %d", h.Count, batches)
	}
	if h := s.Histogram("lix_serve_scan_keys"); h.Count != scans {
		t.Fatalf("scan-keys histogram count = %d, want %d", h.Count, scans)
	}
	if h := s.Histogram("lix_serve_scan_open_ns"); h.Count != scans {
		t.Fatalf("scan-open histogram count = %d, want %d", h.Count, scans)
	}
	if h := s.Histogram("lix_serve_lookup_ns"); h.Count == 0 {
		t.Fatalf("sampled lookup latency histogram empty after 2048 dense probes")
	}
	// The bulk load and the Flush each wrote a segment: the flush duration
	// series holds one observation per file.
	if h := s.Histogram("lix_storage_flush_ns"); h.Count != uint64(s.Counter("lix_storage_flushes_total")) || h.Count == 0 {
		t.Fatalf("flush histogram %d entries, %d flushes", h.Count, s.Counter("lix_storage_flushes_total"))
	}
}

// TestStoreMetricsAddr serves a Store's Metrics through the debug listener
// the lix-* binaries start for a -metrics address, on an ephemeral port,
// and fetches both exposition formats over real HTTP.
func TestStoreMetricsAddr(t *testing.T) {
	st := New([]uint64{1, 2, 3, 5, 8, 13}, core.Config{}, Options{})
	defer st.Close()
	dbg, err := obs.StartDebugServer("127.0.0.1:0", st.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	addr := dbg.Addr()
	st.Insert(21)
	st.Flush()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(body), "lix_serve_inserts_total 1") {
		t.Fatalf("/metrics missing the insert counter:\n%s", body)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/metrics.json", addr))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET /metrics.json: %v", err)
	}
	if snap.Counter("lix_serve_inserts_total") != 1 {
		t.Fatalf("/metrics.json insert counter = %d", snap.Counter("lix_serve_inserts_total"))
	}
}

// TestStoreMetricsRace hammers every instrumented surface from
// GOMAXPROCS-ish writers while a reader snapshots the metrics plane —
// under -race this is the proof that Metrics() is safe concurrently with
// all traffic.
func TestStoreMetricsRace(t *testing.T) {
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = uint64(i) * 5
	}
	st := New(keys, core.Config{}, Options{MergeThreshold: 256})
	defer st.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			probe := make([]uint64, 8)
			for i := 0; i < 400; i++ {
				k := uint64(w*100000 + i)
				st.Insert(k)
				st.Lookup(k)
				for j := range probe {
					probe[j] = k + uint64(j)
				}
				st.LookupBatch(probe)
				if i%64 == 0 {
					it := st.Scan(k, k+1000)
					for it.Next() {
					}
					it.Close()
					st.Flush()
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := st.Metrics()
			if s.Counter("lix_serve_inserts_total") < 0 {
				t.Error("negative insert counter")
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	if got := st.Metrics().Counter("lix_serve_inserts_total"); got != 4*400 {
		t.Fatalf("final inserts counter = %d, want %d", got, 4*400)
	}
}
