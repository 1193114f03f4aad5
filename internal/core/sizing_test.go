package core

import (
	"bytes"
	"flag"
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

// sizingKeys is the largest key count TestZeroConfigSizingContract trains.
// The default keeps `go test ./...` quick; CI's sizing step raises it to the
// 2M keys of a disk-mixed store's big segment.
var sizingKeys = flag.Int("core.sizingkeys", 131072, "largest key count of TestZeroConfigSizingContract")

// The window a stored key's probe should search under the zero Config:
// ⌈log2⌉ ≤ 7 on average and ≤ 10 at worst is what equal-population leaves of
// ~1k keys can give.
const (
	targetMeanLog2Window  = 7
	targetWorstLog2Window = 10
)

// TestZeroConfigSizingContract pins what the zero Config promises every
// serving plane. For every key shape and size: the rule trains
// [innerCount leafCount], a stored key's last-mile window meets the target
// above, the plan costs at most 0.1 B/key from 64k keys up, the batch kernel
// answers the sort.Search lower bound, and both trainers produce the same
// bytes.
//
// Two shapes do NOT meet the window target, and both are the shapes the
// benchmark serves (ROADMAP item 1(d)). The lognormal's first and last leaf
// hold ~1k consecutive keys that span decades of key value, so one line fits
// them badly (worst window 2^11–2^12; 4096 keys over 16 inner models also
// miss the mean). DocID prefixes are base-36 digits in bytes: 36 of 256
// values occupied at every byte, so the CDF is a staircase at every scale
// and a line over ~1k keys always crosses a riser (mean 2^7–2^10). For those
// the test logs the shortfall against the target instead of failing, and
// holds them to what the inner stage does deliver: from 64k keys up, at
// least three lockstep rounds fewer than the linear-top-into-leaves shape
// the zero Config trained before.
func TestZeroConfigSizingContract(t *testing.T) {
	shapes := []struct {
		name     string
		keys     func(n int) []uint64
		knownGap bool // misses the window target; see above
	}{
		{"lognormal", func(n int) []uint64 { return benchLognormal(n, 1) }, true},
		{"docid-prefixes", func(n int) []uint64 { return benchDocIDPrefixes(t, n, 2) }, true},
		{"uniform", func(n int) []uint64 { return data.Uniform(n, 1<<62, 3) }, false},
		{"dense", func(n int) []uint64 { return data.Dense(n, 1000, 3) }, false},
		{"two-clusters", func(n int) []uint64 { return twoClusters(n, 4) }, false},
	}
	for _, sh := range shapes {
		for _, n := range []int{4096, 131072, 2_000_000} {
			if n > *sizingKeys {
				continue
			}
			sh, n := sh, n
			t.Run(fmt.Sprintf("%s/%d", sh.name, n), func(t *testing.T) {
				keys := sh.keys(n)
				r := NewWithTrainWorkers(keys, Config{}, 1)
				ss := r.Config().StageSizes
				if want := []int{innerCount(len(keys)), leafCount(len(keys))}; !slices.Equal(ss, want) {
					t.Errorf("StageSizes %v, want %v", ss, want)
				}
				mean, worst := windowStats(r)
				bpk := float64(planBytes(r.Plan())) / float64(len(keys))
				t.Logf("stages %v: mean|err| %.1f max|err| %d, log2(window) mean %.2f max %.0f, plan %.4f B/key",
					ss, r.MeanAbsErr(), r.MaxAbsErr(), mean, worst, bpk)
				switch missed := mean > targetMeanLog2Window || worst > targetWorstLog2Window; {
				case missed && !sh.knownGap:
					t.Errorf("log2(window) mean %.2f max %.0f, want ≤ %d and ≤ %d",
						mean, worst, targetMeanLog2Window, targetWorstLog2Window)
				case missed:
					t.Logf("KNOWN GAP (ROADMAP 1(d)): log2(window) mean %.2f max %.0f misses the target ≤ %d and ≤ %d",
						mean, worst, targetMeanLog2Window, targetWorstLog2Window)
				}
				if n >= 1<<16 && bpk > 0.1 {
					t.Errorf("plan is %.4f B/key, want ≤ 0.1", bpk)
				}
				if sh.knownGap && n >= 1<<16 {
					old, _ := windowStats(NewWithTrainWorkers(keys, Config{StageSizes: ss[1:]}, 1))
					if mean > old-3 {
						t.Errorf("log2(window) mean %.2f, without the inner stage %.2f: want ≥ 3 rounds fewer", mean, old)
					}
				}

				rng := rand.New(rand.NewSource(int64(n)))
				probes, _ := kernelProbes(rng, [][]uint64{keys}, 4096)
				out := make([]int, len(probes))
				r.Plan().LookupBatch(probes, out)
				for i, k := range probes {
					if want := oracle(keys, k); out[i] != want {
						t.Fatalf("Plan.LookupBatch(%d) = %d, lower bound %d", k, out[i], want)
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
// concurrent flush/compaction/drain retrains race on the caller's slice.
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
