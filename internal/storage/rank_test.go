package storage

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// rankOf runs the engine's batched rank path in either key mode.
func rankOf(e *Engine, strMode bool, probes []uint64) []int {
	out := make([]int, len(probes))
	for i := range out {
		out[i] = -1 // stale answers must be overwritten
	}
	if strMode {
		e.LookupBatchString(strKeysOf(probes), out)
	} else {
		e.LookupBatch(probes, out)
	}
	return out
}

// checkRanks is the rank kernel's oracle: the batched answer equals the
// scalar per-segment sum equals a binary search over the sorted union of
// everything served.
func checkRanks(t *testing.T, e *Engine, strMode bool, name string, union, probes []uint64) {
	t.Helper()
	got := rankOf(e, strMode, probes)
	for i, k := range probes {
		want := sort.Search(len(union), func(j int) bool { return union[j] >= k })
		scalar := 0
		if strMode {
			scalar = e.LookupString(strKeysOf(probes[i : i+1])[0])
		} else {
			scalar = e.Lookup(k)
		}
		if got[i] != want || scalar != want {
			t.Fatalf("str=%v %s: probe %d (%#x): batch=%d scalar=%d, union rank %d", strMode, name, i, k, got[i], scalar, want)
		}
	}
}

// TestRankBatchMatchesScalar: every probe order and every fence outcome,
// batches longer than a chunk (and so more pairs than the pair buffer
// holds), an engine with no segment, with one, and with more than the rank
// call keeps plans for on its stack.
func TestRankBatchMatchesScalar(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		e, all := kernelEngine(t, strMode)
		union := slices.Clone(all)
		slices.Sort(union)
		rng := rand.New(rand.NewSource(6))
		sample := func(n int, delta uint64) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = all[rng.Intn(len(all))] + delta
			}
			return out
		}
		long := append(sample(3*containsChunk, 0), sample(3*containsChunk+17, 1)...) // shuffled by construction
		ascending := slices.Clone(long[:700])
		slices.Sort(ascending)
		for name, probes := range map[string][]uint64{
			"empty batch":       {},
			"single stored":     sample(1, 0),
			"single missing":    sample(1, 1),
			"one tile":          append(sample(32, 0), sample(32, 1)...),
			"over the chunk":    long,
			"ascending":         ascending,
			"duplicates":        append(repeat(sample(1, 0)[0], 40), repeat(sample(1, 1)[0], 40)...),
			"below every fence": {0, 1, 2, union[0] - 1, union[0]},
			"above every fence": {union[len(union)-1], union[len(union)-1] + 1, 1 << 62, ^uint64(0)},
			"between fences":    {1 << 49, 1<<50 - 1, 1<<50 + 1, 1<<50 + 9},
		} {
			checkRanks(t, e, strMode, name, union, probes)
		}

		empty := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode})
		if got := rankOf(empty, strMode, []uint64{0, 7, ^uint64(0)}); !slices.Equal(got, []int{0, 0, 0}) {
			t.Fatalf("str=%v: an engine with no segment ranks %v", strMode, got)
		}

		// One segment, then one more per round until the list outgrows the
		// stack plan buffer; the interleaved runs all span the whole range.
		many, served := empty, []uint64(nil)
		for round := 0; round <= stackSegs+3; round++ {
			part := make([]uint64, 300)
			for i := range part {
				part[i] = uint64(i*(stackSegs+4)+round) * 4
			}
			served = append(served, part...)
			var err error
			if strMode {
				err = many.AppendStringBatch(strKeysOf(part))
			} else {
				err = many.AppendBatch(part)
			}
			if err == nil {
				err = many.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 || round == stackSegs+3 {
				slices.Sort(served)
				probes := make([]uint64, 500)
				for i := range probes {
					probes[i] = served[rng.Intn(len(served))] + uint64(rng.Intn(3))
				}
				checkRanks(t, many, strMode, "segment count", served, probes)
			}
		}
		if got := many.Stats().Segments; got <= stackSegs {
			t.Fatalf("setup: %d segments do not outgrow the stack buffer of %d", got, stackSegs)
		}
		many.Close()
	}
}

// TestRankBatchOneListDuringFlushAndCompaction is the -race half, and the
// consistency contract of a batch: every probe is answered against the one
// segment list the call captured. A single writer flushes rounds of 50
// keys while the compactor keeps merging, so any published list serves the
// stable keys plus the first r rounds, whole, for some r. The rank of the
// largest possible key tells which r a batch saw; every other rank of that
// batch must then be exactly what that r implies — a batch that mixed two
// lists cannot satisfy it.
func TestRankBatchOneListDuringFlushAndCompaction(t *testing.T) {
	rankOneListOracle(t, func(e *Engine, round int) error { return e.Flush() })
}

// TestRankBatchOneListDuringDrainSpillAndCompaction is the same contract
// over the three publications there are now: three rounds in four are
// drains, each replacing the resident run at the tail of the list, the
// fourth is the spill that swaps it for a file — which the compactor, woken
// by that spill, merges with its neighbours while the next drains publish.
func TestRankBatchOneListDuringDrainSpillAndCompaction(t *testing.T) {
	rankOneListOracle(t, func(e *Engine, round int) error {
		if round%4 == 3 {
			return e.Flush()
		}
		return e.Drain()
	})
}

// rankOneListOracle runs the one-list contract with publish(e, round)
// making each round's keys served (round -1 is the stable keys).
func rankOneListOracle(t *testing.T, publish func(e *Engine, round int) error) {
	const nStable, rounds, perRound = 2000, 60, 50
	for _, strMode := range []bool{false, true} {
		e := openT(t, t.TempDir(), Options{StringKeys: strMode, CompactFanout: 2})
		round := -1
		appendFlush := func(keys []uint64) {
			var err error
			if strMode {
				err = e.AppendStringBatch(strKeysOf(keys))
			} else {
				err = e.AppendBatch(keys)
			}
			if err == nil {
				err = publish(e, round)
			}
			if err != nil {
				t.Error(err)
			}
		}
		stable := make([]uint64, nStable) // multiples of 8
		for i := range stable {
			stable[i] = uint64(i) * 8
		}
		appendFlush(stable)
		// below(k, off) counts the j >= 0 with j*8+off < k.
		below := func(k, off uint64) int {
			if k <= off {
				return 0
			}
			return int((k-off-1)/8) + 1
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // writer: round r adds keys (r*perRound+i)*8+2, ascending across rounds
			defer wg.Done()
			for round = 0; round < rounds; round++ {
				keys := make([]uint64, perRound)
				for i := range keys {
					keys[i] = uint64(round*perRound+i)*8 + 2
				}
				appendFlush(keys)
			}
			close(stop)
		}()
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				probes := make([]uint64, 300)
				for stopped := false; !stopped; {
					select {
					case <-stop:
						stopped = true // one last batch against the final list
					default:
					}
					for i := range probes {
						probes[i] = uint64(rng.Intn((nStable + 100) * 8))
					}
					probes[0] = ^uint64(0)
					got := rankOf(e, strMode, probes)
					written := got[0] - nStable // whole rounds, if the list is one list
					if written < 0 || written > rounds*perRound || written%perRound != 0 {
						t.Errorf("str=%v: %d keys served: not the stable keys plus whole rounds", strMode, got[0])
						return
					}
					for i, k := range probes[1:] {
						want := min(nStable, below(k, 0)) + min(written, below(k, 2))
						if got[i+1] != want {
							t.Errorf("str=%v: rank(%d) = %d, but the list serving %d keys ranks it %d", strMode, k, got[i+1], got[0], want)
							return
						}
					}
				}
			}(int64(r))
		}
		wg.Wait()
		if e.Stats().Compactions == 0 {
			t.Errorf("str=%v: no compaction ran beside the readers", strMode)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
