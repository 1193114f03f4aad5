package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"learnedindex/internal/data"
	"learnedindex/internal/keycodec"
)

// benchLognormal draws n sorted unique keys the way benchmark/gen.go does:
// exp(N(0, σ=2)) clipped at 5.5σ, scaled onto [0, 2^58), two tag bits below.
func benchLognormal(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, n+n/32)
	for len(keys) < n {
		for len(keys) < cap(keys) {
			z := min(rng.NormFloat64(), 5.5)
			k := min(uint64(math.Exp(2*(z-5.5))*(1<<58)), 1<<58-1)
			keys = append(keys, k<<2)
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	// Thin evenly: dropping from the top would cut the tail off.
	out := keys[:0]
	total, extra := len(keys), len(keys)-n
	for i, k := range keys {
		if (i+1)*extra/total == i*extra/total {
			out = append(out, k)
		}
	}
	return out
}

// benchDocIDPrefixes returns the prefix array a string segment trains on:
// n DocID keys drawn like benchmark/gen.go's (a skewed two-character
// cluster, then base-36 digits) through keycodec.BuildDict. Keys that share
// their first 8 bytes share a prefix, so the array is a little under n.
func benchDocIDPrefixes(t testing.TB, n int, seed int64) []uint64 {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for k := range keys {
		b := []byte("d00-0000000000")
		u := rng.Float64()
		cluster := int(u * u * 64)
		b[1], b[2] = digits[cluster/36], digits[cluster%36]
		burst, tail := rng.Intn(1<<20), rng.Intn(1<<24)
		for i := 0; i < 5; i++ {
			b[4+i], b[9+i] = digits[burst%36], digits[tail%36]
			burst, tail = burst/36, tail/36
		}
		keys[k] = string(b)
	}
	slices.Sort(keys)
	prefixes, _, err := keycodec.BuildDict(slices.Compact(keys))
	if err != nil {
		t.Fatal(err)
	}
	return prefixes
}

// twoClusters is n keys in two uniform clusters 2^60 apart.
func twoClusters(n int, seed int64) []uint64 {
	lo := data.Uniform(n/2, 1<<30, seed)
	hi := data.Uniform(n-n/2, 1<<30, seed+1)
	keys := slices.Clone([]uint64(lo))
	for _, k := range hi {
		keys = append(keys, 1<<60+k)
	}
	return keys
}

// windowStats returns the mean and max of log2(last-mile window) over every
// stored key's probe: the number of lockstep rounds the batch kernel spends
// on it.
func windowStats(r *RMI) (mean, max float64) {
	p := r.Plan()
	sum := 0.0
	for _, k := range r.keys {
		x := float64(k)
		_, lo, hi := p.window(&p.leaves[p.route(x)], x)
		l := float64(bits.Len(uint(hi - lo - 1))) // ⌈log2(window)⌉, 0 for a 1-key window
		sum += l
		max = math.Max(max, l)
	}
	return sum / float64(len(r.keys)), max
}

// planBytes is the compiled plan's model storage: inner coefficients plus
// packed leaf records.
func planBytes(p *Plan) int { return 8*len(p.inner) + 32*len(p.leaves) }

// TestZeroConfigSizingContract pins what the zero Config promises every
// serving plane. For every key shape and size: a stored key's last-mile
// window is small (mean and worst ⌈log2⌉ under the shape's ceiling, and on
// skewed keys at least three lockstep rounds under the two-stage shape the
// zero Config used to train), the plan costs at most 0.1 B/key from 64k
// keys up, the batch kernel agrees with the interpreted path, and both
// trainers produce the same bytes. Keys a linear top already balances keep
// the two-stage shape.
//
// Ceilings: mean ≤ 7 and worst ≤ 10 is what equal-population leaves of ~1k
// keys can give, and uniform, dense and clustered keys get it. Two shapes
// sit above it, for reasons more inner models do not fix. The lognormal's
// first and last leaf hold ~1k consecutive keys that span decades of key
// value, so one line fits them badly (worst window 2^11–2^12; the mean is
// unaffected). DocID prefixes are base-36 digits in bytes: 36 of 256 values
// occupied at every byte, so the CDF is a staircase at every scale and a
// line over ~1k keys always crosses a riser (mean 2^8–2^10, against
// 2^12–2^15 without the inner stage).
func TestZeroConfigSizingContract(t *testing.T) {
	sizes := []int{4096, 131072, 2_000_000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	shapes := []struct {
		name        string
		keys        func(n int) []uint64
		staged      bool // expects the inner stage
		mean, worst float64
	}{
		{"lognormal", func(n int) []uint64 { return benchLognormal(n, 1) }, true, 7.5, 12},
		{"docid-prefixes", func(n int) []uint64 { return benchDocIDPrefixes(t, n, 2) }, true, 10, 12},
		{"uniform", func(n int) []uint64 { return data.Uniform(n, 1<<62, 3) }, false, 7, 10},
		{"dense", func(n int) []uint64 { return data.Dense(n, 1000, 3) }, false, 7, 10},
		{"two-clusters", func(n int) []uint64 { return twoClusters(n, 4) }, true, 7, 10},
	}
	for _, sh := range shapes {
		for _, n := range sizes {
			sh, n := sh, n
			t.Run(fmt.Sprintf("%s/%d", sh.name, n), func(t *testing.T) {
				keys := sh.keys(n)
				r := NewWithTrainWorkers(keys, Config{}, 1)
				ss := r.Config().StageSizes
				if got := len(ss) == 2; got != sh.staged {
					t.Errorf("StageSizes %v: inner stage = %v, want %v", ss, got, sh.staged)
				}
				if ss[len(ss)-1] != leafCount(len(keys)) {
					t.Errorf("StageSizes %v: leaf stage is not leafCount = %d", ss, leafCount(len(keys)))
				}
				mean, worst := windowStats(r)
				bpk := float64(planBytes(r.Plan())) / float64(len(keys))
				t.Logf("stages %v: mean|err| %.1f max|err| %d, log2(window) mean %.2f max %.0f, plan %.4f B/key",
					ss, r.MeanAbsErr(), r.MaxAbsErr(), mean, worst, bpk)
				if mean > sh.mean || worst > sh.worst {
					t.Errorf("log2(window) mean %.2f max %.0f, want ≤ %v and ≤ %v", mean, worst, sh.mean, sh.worst)
				}
				if n >= 1<<16 && bpk > 0.1 {
					t.Errorf("plan is %.4f B/key, want ≤ 0.1", bpk)
				}
				if sh.staged && n >= 1<<16 {
					old, _ := windowStats(NewWithTrainWorkers(keys, Config{StageSizes: ss[1:]}, 1))
					if mean > old-3 {
						t.Errorf("log2(window) mean %.2f, two-stage shape %.2f: want ≥ 3 rounds fewer", mean, old)
					}
				}

				rng := rand.New(rand.NewSource(int64(n)))
				probes, _ := kernelProbes(rng, [][]uint64{keys}, 4096)
				out := make([]int, len(probes))
				r.Plan().LookupBatch(probes, out)
				for i, k := range probes {
					if want := r.Lookup(k); out[i] != want {
						t.Fatalf("Plan.LookupBatch(%d) = %d, RMI.Lookup = %d", k, out[i], want)
					}
				}

				seq, err := r.AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				par, err := NewWithTrainWorkers(keys, Config{}, 3).AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seq, par) {
					t.Fatal("parallel trainer's bytes differ from the sequential trainer's")
				}
			})
		}
	}
}

// TestSharedConfigConcurrentTrain trains from one shared Config whose
// StageSizes need clamping: the trainer must clone before it writes, or
// concurrent flush/compaction/shard retrains race on the caller's slice.
func TestSharedConfigConcurrentTrain(t *testing.T) {
	shared := Config{StageSizes: []int{0, 64}}
	keys := data.LognormalPaper(20_000, 5)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := New(keys, shared)
			if got := r.Config().StageSizes; !slices.Equal(got, []int{1, 64}) {
				t.Errorf("trained StageSizes %v, want [1 64]", got)
			}
			if r.Lookup(keys[777]) != 777 {
				t.Error("lookup broken")
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(shared.StageSizes, []int{0, 64}) {
		t.Fatalf("caller's StageSizes rewritten to %v", shared.StageSizes)
	}
}
