package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fakeSeg is a segment pickRun can judge: it reads nothing but diskBytes,
// and whether there is a file at all — none (0 bytes) is the resident run.
func fakeSeg(bytes int64) *segment {
	if bytes == 0 {
		return &segment{}
	}
	return &segment{path: "fake", diskBytes: bytes}
}

func fakeSegs(bytes ...int64) []*segment {
	segs := make([]*segment, len(bytes))
	for i, b := range bytes {
		segs[i] = fakeSeg(b)
	}
	return segs
}

func TestPickRunRule(t *testing.T) {
	const kb = 1 << 10
	for _, tc := range []struct {
		name     string
		bytes    []int64
		start, n int
	}{
		{"empty", nil, 0, 0},
		{"under fanout", []int64{40 * kb, 40 * kb, 40 * kb}, 0, 0},
		{"exact class run", []int64{9000 * kb, 40 * kb, 40 * kb, 40 * kb, 40 * kb}, 1, 4},
		// The case the old exact-class rule never merged: stragglers between
		// same-class neighbours ride along.
		{"stragglers ride along", []int64{9000 * kb, 40 * kb, 2 * kb, 40 * kb, 1 * kb, 40 * kb, 40 * kb}, 1, 6},
		{"stragglers alone are not a run", []int64{40 * kb, 2 * kb, 40 * kb, 1 * kb, 3 * kb, 40 * kb}, 0, 0},
		{"a larger segment ends the run", []int64{40 * kb, 40 * kb, 200 * kb, 40 * kb, 40 * kb}, 0, 0},
		{"lowest class first", []int64{200 * kb, 200 * kb, 200 * kb, 200 * kb, 2 * kb, 2 * kb, 2 * kb, 2 * kb}, 4, 4},
		{"oldest run first", []int64{40 * kb, 40 * kb, 40 * kb, 40 * kb, 900 * kb, 40 * kb, 40 * kb, 40 * kb, 40 * kb}, 0, 4},
		{"capped at twice the fanout", repeat(int64(40*kb), 11), 0, 8},
		// The resident run (0: no file) is never an input: not as the member
		// that would complete a run, not as a straggler riding along.
		{"resident run is not a member", []int64{40 * kb, 40 * kb, 40 * kb, 0}, 0, 0},
		{"resident run does not ride along", []int64{900 * kb, 40 * kb, 40 * kb, 40 * kb, 40 * kb, 0}, 1, 4},
		{"resident run alone", []int64{0}, 0, 0},
	} {
		start, n := pickRun(fakeSegs(tc.bytes...), 4)
		if n != tc.n || (n > 0 && start != tc.start) {
			t.Errorf("%s: pickRun = (%d, %d), want (%d, %d)", tc.name, start, n, tc.start, tc.n)
		}
	}
}

// TestPickRunBoundsTheList is the picker's property test on sizes alone
// (thousands of sequences cost nothing without I/O): flushes of one
// threshold, a third of them stragglers of 1..threshold keys, each followed
// by compaction to quiescence as the background compactor does. The list
// must stay logarithmic in the data — it grew with the flush count under
// the exact-class rule — nothing may stay eligible, debt must agree with
// the picker at every step, and a base two classes above the newcomers
// must never be an input.
func TestPickRunBoundsTheList(t *testing.T) {
	const (
		fanout    = 4
		threshold = 4096
		perKey    = 8 // bytes a key costs in a segment, about what lognormal keys do
		baseBytes = 64 * threshold * perKey
	)
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := fakeSeg(baseBytes)
		segs := []*segment{base}
		total := 0 // keys inserted after the base
		for flush := 0; flush < 40+rng.Intn(120); flush++ {
			keys := threshold
			if rng.Intn(3) == 0 {
				keys = 1 + rng.Intn(threshold)
			}
			total += keys
			segs = append(segs, fakeSeg(int64(keys*perKey)))
			for {
				start, n := pickRun(segs, fanout)
				if debt := compactionDebt(segs, fanout); (debt > 0) != (n > 0) {
					t.Fatalf("seed %d: compactionDebt=%d but pickRun found %d segments", seed, debt, n)
				}
				if n == 0 {
					break
				}
				if n < fanout || n > 2*fanout {
					t.Fatalf("seed %d: run of %d inputs with fanout %d", seed, n, fanout)
				}
				// 160 flushes cannot assemble the three more segments of the
				// base's class that would make rewriting it worth its price.
				if start == 0 {
					t.Fatalf("seed %d: base segment picked after %d inserted keys: %v", seed, total, classesOf(segs))
				}
				var merged int64
				for _, s := range segs[start : start+n] {
					merged += s.diskBytes
				}
				segs = slices.Replace(segs, start, start+n, fakeSeg(merged))
			}
			levels := math.Ceil(math.Log(float64(baseBytes/perKey+total)/threshold) / math.Log(4))
			if limit := fanout*int(levels) + fanout; len(segs) > limit {
				t.Fatalf("seed %d: %d segments after %d flushes (%d keys), limit %d: %v",
					seed, len(segs), flush+1, total, limit, classesOf(segs))
			}
		}
	}
}

func classesOf(segs []*segment) []int {
	out := make([]int, len(segs))
	for i, s := range segs {
		out[i] = sizeClass(s.diskBytes)
	}
	return out
}

// TestCompactionDebtMatchesPicker: on arbitrary lists, backpressure debt is
// non-zero exactly when the compactor has a run to merge, and never counts
// more segments than exist.
func TestCompactionDebtMatchesPicker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		fanout := 2 + rng.Intn(4)
		bytes := make([]int64, rng.Intn(24))
		for i := range bytes {
			bytes[i] = 1 << (10 + 2*rng.Intn(4)) // four adjacent classes
		}
		segs := fakeSegs(bytes...)
		_, n := pickRun(segs, fanout)
		debt := compactionDebt(segs, fanout)
		if (debt > 0) != (n > 0) || debt > len(segs) || debt < n {
			t.Fatalf("fanout %d %v: debt %d, picked %d", fanout, classesOf(segs), debt, n)
		}
	}
}

// TestCompactionStragglersProperty drives real engines (both key modes)
// through random flush sizes with stragglers and checks what the picker
// must preserve: after Compact nothing is eligible, every key is served,
// Len is exact, sequence ranges tile without gaps, and the base segment —
// two classes above the newcomers — is never rewritten.
func TestCompactionStragglersProperty(t *testing.T) {
	const threshold = 512
	for _, strMode := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("str=%v/seed=%d", strMode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				e := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode})
				defer e.Close()
				next := uint64(0)
				var all []uint64 // every key appended; string mode formats them
				appendN := func(n int) {
					batch := make([]uint64, n)
					for i := range batch {
						next += 1 + uint64(rng.Intn(1000))
						batch[i] = next
					}
					rng.Shuffle(n, func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
					all = append(all, batch...)
					var err error
					if strMode {
						err = e.AppendStringBatch(strKeysOf(batch))
					} else {
						err = e.AppendBatch(batch)
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := e.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				appendN(64 * threshold)
				base := (*e.segs.Load())[0]
				for flush := 0; flush < 40; flush++ {
					if rng.Intn(3) == 0 {
						appendN(1 + rng.Intn(threshold))
					} else {
						appendN(threshold)
					}
					if err := e.Compact(); err != nil {
						t.Fatal(err)
					}
					segs := *e.segs.Load()
					if _, n := pickRun(segs, e.opts.CompactFanout); n != 0 || compactionDebt(segs, e.opts.CompactFanout) != 0 {
						t.Fatalf("a run is still eligible after Compact: %v", classesOf(segs))
					}
					if segs[0] != base {
						t.Fatalf("base segment was rewritten at flush %d: %v", flush, classesOf(segs))
					}
					for i, s := range segs {
						if i > 0 && s.seqLo != segs[i-1].seqHi+1 {
							t.Fatalf("sequence gap between segments %d and %d", i-1, i)
						}
					}
					if e.Len() != len(all) {
						t.Fatalf("Len=%d, want %d", e.Len(), len(all))
					}
					levels := math.Ceil(math.Log(float64(len(all))/threshold) / math.Log(4))
					if limit := e.opts.CompactFanout * (int(levels) + 1); len(segs) > limit {
						t.Fatalf("%d segments for %d keys, limit %d: %v", len(segs), len(all), limit, classesOf(segs))
					}
				}
				if e.Stats().Compactions == 0 {
					t.Fatal("no compaction ran")
				}
				out := make([]bool, len(all))
				if strMode {
					e.ContainsBatchString(strKeysOf(all), out)
				} else {
					e.ContainsBatch(all, out)
				}
				if i := slices.Index(out, false); i >= 0 {
					t.Fatalf("key %d lost", all[i])
				}
			})
		}
	}
}

// strKeysOf formats keys as fixed-width strings, order-preserving.
func strKeysOf(keys []uint64) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("key-%016x", k)
	}
	return out
}
