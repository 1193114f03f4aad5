package storage

import (
	"sync"
	"testing"

	"learnedindex/internal/obs"
)

// TestStatsFlushConsistency asserts the Stats read-consistency contract:
// with no compactor, every published segment rides exactly one flush, so a
// Stats racing any number of flushes must never observe a segment before
// the flush that produced it (Segments <= Flushes at every instant). Run
// under -race this also proves Stats itself is data-race-free against the
// write plane.
func TestStatsFlushConsistency(t *testing.T) {
	e, err := Open(t.TempDir(), Options{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const flushes = 60
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(stop)
		key := uint64(0)
		for i := 0; i < flushes; i++ {
			for j := 0; j < 50; j++ {
				key++
				if err := e.Append(key); err != nil {
					t.Error(err)
					return
				}
			}
			if err := e.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	checks := 0
	for {
		select {
		case <-stop:
			wg.Wait()
			st := e.Stats()
			if st.Segments != flushes || st.Flushes != flushes {
				t.Fatalf("final Stats: %d segments, %d flushes, want %d/%d",
					st.Segments, st.Flushes, flushes, flushes)
			}
			if checks == 0 {
				t.Fatalf("reader never ran a mid-flush check")
			}
			return
		default:
			st := e.Stats()
			if st.Segments > st.Flushes {
				t.Fatalf("torn Stats: %d segments but only %d flushes", st.Segments, st.Flushes)
			}
			checks++
		}
	}
}

// TestEngineMetrics drives appends, commits, flushes, lookups, a
// compaction, and a drain through an engine and asserts the metrics plane
// saw all of it: accounting counters match Stats, the
// fsync/cohort/flush/drain histograms recorded events, the resident run is
// counted as the segment it is and sized by its own gauge, and the
// per-segment Bloom funnel yields an observed FPR.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := Open(t.TempDir(), Options{NoCompactor: true, CompactFanout: 2, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Registry() != reg {
		t.Fatalf("Registry() did not return the supplied registry")
	}

	for f := 0; f < 4; f++ {
		for k := 0; k < 500; k++ {
			if err := e.Append(uint64(f*10000 + k*7)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Commit(uint64(f*10000 + 9999)); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	// Membership after compaction settles: hits, and misses.
	hits, misses := 0, 0
	for k := 0; k < 500; k++ {
		if e.Contains(uint64(k * 7)) {
			hits++
		}
		if e.Contains(uint64(1000000 + k)) {
			misses++
		}
	}
	if hits != 500 || misses != 0 {
		t.Fatalf("contains drive: %d hits, %d false", hits, misses)
	}

	// A drain: served by the resident run, no file, not a flush.
	if err := e.Commit(5_000_001, 5_000_002, 5_000_003); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	s := e.Metrics()
	if got := s.Counter("lix_storage_flushes_total"); got != int64(st.Flushes) || got != 4 {
		t.Fatalf("flushes metric %d, Stats %d, want the 4 files written", got, st.Flushes)
	}
	if got := s.Counter("lix_storage_drains_total"); got != int64(st.Drains) || got != 1 {
		t.Fatalf("drains metric %d, Stats %d, want 1", got, st.Drains)
	}
	if got := s.Gauge("lix_storage_resident_keys"); got != 3 {
		t.Fatalf("resident keys gauge %g, want 3", got)
	}
	if st.Segments != 2 {
		t.Fatalf("%d segments, want the compacted file and the resident run", st.Segments)
	}
	if got := s.Counter("lix_storage_compactions_total"); got != int64(st.Compactions) || got == 0 {
		t.Fatalf("compactions metric %d (Stats %d)", got, st.Compactions)
	}
	if got := s.Counter("lix_storage_commits_total"); got != int64(st.Commits) || got != 5 {
		t.Fatalf("commits metric %d", got)
	}
	if got := s.Gauge("lix_storage_segments"); got != float64(st.Segments) {
		t.Fatalf("segments gauge %g != Stats %d", got, st.Segments)
	}
	if got := s.Gauge("lix_storage_keys"); got != float64(st.Keys) {
		t.Fatalf("keys gauge %g != Stats %d", got, st.Keys)
	}
	if obs.Enabled {
		if h := s.Histogram("lix_wal_fsync_ns"); h.Count == 0 {
			t.Fatalf("fsync histogram empty after commits and flushes")
		}
		if h := s.Histogram("lix_storage_flush_ns"); h.Count != uint64(st.Flushes) {
			t.Fatalf("flush duration histogram %d entries, want %d", s.Histogram("lix_storage_flush_ns").Count, st.Flushes)
		}
		if h := s.Histogram("lix_storage_drain_ns"); h.Count != 1 {
			t.Fatalf("drain duration histogram %d entries, want 1", h.Count)
		}
		if h := s.Histogram("lix_wal_cohort_commits"); h.Count == 0 {
			t.Fatalf("cohort histogram empty after commits")
		}
		// Model health: the lookups above sampled 1-in-64 keys; with 2000+
		// served keys probed the observed-error histogram and its trained
		// bound must both be present.
		if g, ok := s.Gauges["lix_storage_trained_err_bound"]; !ok || g < 0 {
			t.Fatalf("trained bound gauge missing")
		}
		if h := s.Histogram("lix_storage_model_err"); h.Count == 0 {
			t.Fatalf("observed model-error histogram empty after 1000 probes")
		}
	}
}
