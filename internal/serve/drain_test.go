package serve

import (
	"sync"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

// TestInsertDurableInMemory checks the durable-insert entry point on an
// in-memory Store: its commits reach a filesystem that keeps nothing, but
// the keys must land.
func TestInsertDurableInMemory(t *testing.T) {
	s := New(nil, core.Config{}, Options{})
	defer s.Close()
	keys := data.Uniform(3_000, 1_000_000, 93)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keys); i += 3 {
				if err := s.InsertDurable(keys[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.Flush()
	for _, k := range keys {
		if !s.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
}

// TestInsertDurablePersistent drives concurrent durable inserts through
// the group-commit plane of a persistent Store and verifies the acked
// keys survive a close/reopen cycle, with fsyncs amortized across the
// committer cohort (strictly fewer fsyncs than durable calls).
func TestInsertDurablePersistent(t *testing.T) {
	dir := t.TempDir()
	keys := data.Uniform(2_000, 1_000_000_000, 94)
	s, err := Open(nil, core.Config{}, Options{Dir: dir, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const committers = 4
	var wg sync.WaitGroup
	calls := 0
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keys); i += committers {
				if err := s.InsertDurable(keys[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		calls += (len(keys) - g + committers - 1) / committers
	}
	wg.Wait()
	st, ok := s.StorageStats()
	if !ok {
		t.Fatal("persistent store reported no storage stats")
	}
	if st.Commits != calls {
		t.Fatalf("Commits=%d, want %d", st.Commits, calls)
	}
	if st.WALSyncs >= calls {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d durable calls", st.WALSyncs, calls)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(nil, core.Config{}, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range keys {
		if !re.Contains(k) {
			t.Fatalf("durably inserted key %d lost across reopen", k)
		}
	}
}
