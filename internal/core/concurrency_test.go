package core

import (
	"sync"
	"testing"

	"learnedindex/internal/data"
)

// TestRMIConcurrentReaders: the index is read-only after training; parallel
// lookups from many goroutines must be race-free and correct (run under
// `go test -race` to make this meaningful).
func TestRMIConcurrentReaders(t *testing.T) {
	keys := data.LognormalPaper(30_000, 1)
	r := New(keys, DefaultConfig(300))
	probes := append(data.SampleExisting(keys, 2000, 2), data.SampleMissing(keys, 500, 3)...)
	want := make([]int, len(probes))
	for i, p := range probes {
		want[i] = oracle(keys, p)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(probes); i += 8 {
				if got := r.Lookup(probes[i]); got != want[i] {
					select {
					case errs <- "concurrent lookup mismatch":
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}

// TestStringRMIConcurrentReaders: same property for the string index (its
// Lookup uses stack buffers, never shared state).
func TestStringRMIConcurrentReaders(t *testing.T) {
	keys := data.DocIDs(10_000, 1)
	r := NewString(keys, DefaultStringConfig(100, 16))
	probes := data.SampleExistingStrings(keys, 2000, 2)
	var wg sync.WaitGroup
	bad := false
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(probes); i += 8 {
				if !r.Contains(probes[i]) {
					bad = true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if bad {
		t.Fatal("concurrent string lookup lost a key")
	}
}
