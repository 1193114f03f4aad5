package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"learnedindex/internal/data"
)

// The per-key trainer that training by runs replaced, kept as its oracle:
// every stage routes each key through the whole trained prefix into a
// 4 B/key route array and folds it into its model's sums, and the leaves'
// error pass and hybrid B-Trees read the same array back.

// trainPerKey trains keys under cfg with the per-key trainer.
func trainPerKey(keys []uint64, cfg Config) *RMI {
	r, byRule := newUntrained(keys, cfg)
	if len(keys) > 0 {
		xs, ys := r.trainTop()
		if byRule {
			r.fitSampledInnerPerKey(xs, ys)
		}
		r.initRouteMul()
		r.trainStagesPerKey()
	}
	r.plan = r.compile()
	return r
}

func (r *RMI) fitSampledInnerPerKey(xs, ys []float64) {
	size := r.cfg.StageSizes[0]
	mul := float64(size) / r.nf
	accs := make([]regAcc, size)
	for i, x := range xs {
		accs[scaleByMul(r.top.Predict(x), mul, size)].add(x, ys[i], int32(ys[i]))
	}
	r.stages = [][]linmod{fitModels(accs)}
}

func (r *RMI) trainStagesPerKey() {
	n := len(r.keys)
	nStages := len(r.cfg.StageSizes)
	route := make([]int32, n) // leaf routing, reused by the error pass

	for s := len(r.stages); s < nStages; s++ { // the zero Config's inner stage is already fit
		size := r.cfg.StageSizes[s]
		accs := make([]regAcc, size)
		for i := 0; i < n; i++ {
			x := float64(r.keys[i])
			idx := r.routeTo(x, s)
			route[i] = int32(idx)
			accs[idx].add(x, float64(i), int32(i))
		}
		models := fitModels(accs)
		if s < nStages-1 {
			r.stages = append(r.stages, models)
			continue
		}
		r.leaves = make([]leaf, size)
		for j := range r.leaves {
			r.leaves[j].m = models[j]
		}
		r.computeLeafErrorsPerKey(route)
		if r.cfg.HybridThreshold > 0 {
			r.applyHybridPerKey(route)
		}
	}
}

func (r *RMI) computeLeafErrorsPerKey(route []int32) {
	errs := make([]leafErrAcc, len(r.leaves))
	for j := range errs {
		errs[j] = newLeafErrAcc()
	}
	var g globalErr
	for i, k := range r.keys {
		j := route[i]
		d := i - int(r.leaves[j].m.predict(float64(k)))
		errs[j].add(d)
		g.add(d)
	}
	for j := range r.leaves {
		r.leaves[j].setErrors(&errs[j])
	}
	r.setGlobalErr(g)
}

func (ev *leafErrAcc) add(d int) {
	if d < ev.min {
		ev.min = d
	}
	if d > ev.max {
		ev.max = d
	}
	fd := float64(d)
	ev.sum += fd
	ev.sumsq += fd * fd
	ev.n++
}

func (g *globalErr) add(d int) {
	if d < 0 {
		d = -d
	}
	g.sum += uint64(d)
	if d > g.max {
		g.max = d
	}
}

func (r *RMI) applyHybridPerKey(route []int32) {
	thr := r.cfg.HybridThreshold
	flagged := make(map[int32]*leaf)
	for j := range r.leaves {
		lf := &r.leaves[j]
		if lf.n == 0 {
			continue
		}
		worst := int(lf.maxErr)
		if -int(lf.minErr) > worst {
			worst = -int(lf.minErr)
		}
		if worst <= thr {
			continue
		}
		flagged[int32(j)] = lf
		lf.btPos = make([]int32, 0, lf.n)
		r.numHybrid++
	}
	if len(flagged) == 0 {
		return
	}
	for i := range r.keys {
		if lf, ok := flagged[route[i]]; ok {
			lf.btPos = append(lf.btPos, int32(i))
		}
	}
	for _, lf := range flagged {
		step := r.cfg.HybridPageSize
		lf.btSep = make([]uint64, 0, len(lf.btPos)/step+1)
		for i := 0; i < len(lf.btPos); i += step {
			lf.btSep = append(lf.btSep, r.keys[lf.btPos[i]])
		}
	}
}

// matchPerKey trains keys under cfg on `workers` workers and fails unless
// the serialized bytes and error stats equal the per-key trainer's. It
// returns the per-key twin.
func matchPerKey(t testing.TB, keys []uint64, cfg Config, workers int) *RMI {
	t.Helper()
	ref := trainPerKey(keys, cfg)
	want, err := ref.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode per-key: %v", err)
	}
	r := NewWithTrainWorkers(keys, cfg, workers)
	got, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode workers=%d: %v", workers, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("workers=%d: serialized bytes differ from the per-key trainer's (%d vs %d bytes)",
			workers, len(got), len(want))
	}
	if r.MeanAbsErr() != ref.MeanAbsErr() || r.MaxAbsErr() != ref.MaxAbsErr() {
		t.Fatalf("workers=%d: error stats %v/%d, per-key %v/%d",
			workers, r.MeanAbsErr(), r.MaxAbsErr(), ref.MeanAbsErr(), ref.MaxAbsErr())
	}
	return ref
}

// TestRunTrainerMatchesPerKey pins training by runs to the per-key trainer
// it replaced, byte for byte, for every config of
// TestParallelTrainerBitIdentical on every key shape the planes train —
// including sizes around the zero Config's minimum stage sizes and keys
// above 2^53, where neighbours collide as float64 — on 1, 2, 3 and 8
// workers. Its inputs must reach the cases bisection has to get right: a
// leaf whose keys arrive from two inner models (the second model routes
// back below where the first one ended) and models no key reaches.
func TestRunTrainerMatchesPerKey(t *testing.T) {
	configs := map[string]Config{ // TestParallelTrainerBitIdentical's table
		"linear-default": DefaultConfig(500),
		"multivariate":   {Top: TopMultivariate, StageSizes: []int{300}, Search: SearchQuaternary, Seed: 1},
		"nn-top":         {Top: TopNN, Hidden: []int{8}, StageSizes: []int{120}, Search: SearchBinary, Seed: 1, SubsampleTop: 20_000},
		"hybrid":         {Top: TopLinear, StageSizes: []int{60}, Search: SearchModelBiased, HybridThreshold: 8, HybridPageSize: 16, Seed: 1},
		"multi-stage":    {Top: TopLinear, StageSizes: []int{8, 64, 500}, Search: SearchExponential, Seed: 1},
		"zero-config":    {},
		"zero-strided":   {SubsampleTop: 5_000},
	}
	const n = 20_000
	keysets := map[string][]uint64{
		"lognormal":      data.LognormalPaper(n, 17),
		"dense":          data.Dense(n, 1000, 3),
		"maps":           data.Maps(n, 23),
		"weblogs":        data.Weblogs(n, 5),
		"uniform":        data.Uniform(n, 1<<62, 3),
		"docid-prefixes": benchDocIDPrefixes(t, n, 2),
		// 2^60 + i: a float64 holds 2^60 to within 256, so runs of 256
		// neighbours share one x.
		"dense-above-2^53": data.Dense(n, 1<<60, 1),
	}
	keysets["empty"] = nil
	for _, m := range []int{1, 2, 15, 16, 17, 1000} {
		keys := data.LognormalPaper(m, int64(m)+1)
		if len(keys) != m {
			t.Fatalf("LognormalPaper(%d) gave %d keys", m, len(keys))
		}
		keysets[fmt.Sprintf("lognormal-%d", m)] = keys
	}

	inversions, emptyLeaves, emptyInner := 0, 0, 0
	for cname, cfg := range configs {
		for kname, keys := range keysets {
			t.Run(cname+"/"+kname, func(t *testing.T) {
				var ref *RMI
				for _, workers := range []int{1, 2, 3, 8} {
					ref = matchPerKey(t, keys, cfg, workers)
				}
				for j := range ref.leaves {
					if ref.leaves[j].n == 0 {
						emptyLeaves++
					}
				}
				last := len(ref.cfg.StageSizes) - 1
				if last == 0 {
					return
				}
				reached := make([]bool, ref.cfg.StageSizes[last-1])
				prevInner, prevLeaf := -1, -1
				for _, k := range keys {
					inner, leaf := ref.routeTo(float64(k), last-1), ref.routeTo(float64(k), last)
					reached[inner] = true
					if inner != prevInner && leaf < prevLeaf {
						inversions++
					}
					prevInner, prevLeaf = inner, leaf
				}
				if len(keys) > 0 && cfg.StageSizes != nil {
					for _, ok := range reached {
						if !ok {
							emptyInner++
						}
					}
				}
			})
		}
	}
	t.Logf("leaf runs that restart below their predecessor at an inner-model boundary: %d; empty leaves: %d; empty fitted inner models: %d",
		inversions, emptyLeaves, emptyInner)
	if inversions == 0 || emptyLeaves == 0 || emptyInner == 0 {
		t.Fatal("the inputs no longer reach an inversion at an inner-model boundary, an empty leaf and an empty fitted inner model")
	}
}

// TestSplitRun checks the run splitter against per-key routing on
// hand-set models: ascending with both clamps hit, descending (negative
// slope), flat (zero slope), keys that collide as float64, and a range
// that starts mid-array. Runs must tile the range in key order, each the
// maximal stretch of keys routed to one model.
func TestSplitRun(t *testing.T) {
	dense := data.Dense(100, 0, 1)
	cases := []struct {
		name   string
		keys   []uint64
		lo, hi int
		m      linmod
		mul    float64
		size   int
		want   int // runs
	}{
		{"ascending-clamped", dense, 0, 100, linmod{a: 2, b: -50}, 0.1, 10, 10},
		{"descending", dense, 0, 100, linmod{a: -1, b: 99}, 0.1, 10, 10},
		{"flat", dense, 0, 100, linmod{a: 0, b: 42}, 0.1, 10, 1},
		{"float-collisions", data.Dense(1000, 1<<60, 1), 0, 1000, linmod{a: 1, b: -(1 << 60)}, 0.04, 64, 5},
		{"mid-array", dense, 37, 81, linmod{a: 1, b: 0}, 0.1, 10, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := splitRun(nil, tc.keys, tc.lo, tc.hi, tc.m, tc.mul, tc.size)
			if len(runs) != tc.want {
				t.Errorf("%d runs, want %d: %v", len(runs), tc.want, runs)
			}
			at := tc.lo
			for i, rn := range runs {
				if int(rn.lo) != at || rn.hi <= rn.lo {
					t.Fatalf("run %d = %v does not continue at %d", i, rn, at)
				}
				if i > 0 && runs[i-1].m == rn.m {
					t.Fatalf("runs %d and %d both route to %d", i-1, i, rn.m)
				}
				for p := rn.lo; p < rn.hi; p++ {
					if got := scaleByMul(tc.m.predict(float64(tc.keys[p])), tc.mul, tc.size); got != int(rn.m) {
						t.Fatalf("key %d routes to %d, its run says %d", p, got, rn.m)
					}
				}
				at = int(rn.hi)
			}
			if at != tc.hi {
				t.Fatalf("runs end at %d, want %d", at, tc.hi)
			}
		})
	}
}

// FuzzRunTrainer differentially fuzzes training by runs against the
// per-key trainer: the bytes become a sorted unique key set (gaps scaled
// by a fuzzer-chosen shift above a fuzzer-chosen base, so keys can be
// sparse, dense, or above 2^53 where neighbours collide as float64),
// trained under the zero Config or DefaultConfig(k) on 1–8 workers.
func FuzzRunTrainer(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 250, 9, 4, 0}, uint64(0), uint8(0), uint8(0), uint8(0))
	f.Add(make([]byte, 600), uint64(1)<<60, uint8(0), uint8(7), uint8(2)) // float64 collisions
	f.Add(bytes.Repeat([]byte{0, 1, 255, 255, 3, 0}, 200), uint64(0), uint8(20), uint8(0), uint8(1))
	f.Add(bytes.Repeat([]byte{9, 200, 1, 0}, 300), uint64(12345), uint8(40), uint8(16), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, base uint64, shift, leaves, workers uint8) {
		if len(raw) > 1<<13 {
			t.Skip("keep training cheap")
		}
		keys := make([]uint64, 0, len(raw)/2)
		k := base
		for i := 0; i+2 <= len(raw); i += 2 {
			gap := (uint64(binary.LittleEndian.Uint16(raw[i:])) + 1) << (shift % 48)
			if k > math.MaxUint64-gap {
				break
			}
			k += gap
			keys = append(keys, k)
		}
		cfg := Config{}
		if leaves > 0 {
			cfg = DefaultConfig(int(leaves))
		}
		matchPerKey(t, keys, cfg, int(workers%8)+1)
	})
}

// TestSubsampleTopIsAStride pins what SubsampleTop does: the stage-1
// sample takes every ⌊n/SubsampleTop⌋-th key, so up to 2·SubsampleTop−1
// keys are all sampled and a larger n samples between SubsampleTop and
// 2·SubsampleTop−1 points. Changing it would retrain every segment.
func TestSubsampleTopIsAStride(t *testing.T) {
	const sample = 1000
	for _, tc := range []struct{ sample, n, want int }{
		{sample, sample, sample},
		{sample, sample + 1, sample + 1},
		{sample, 2*sample - 1, 2*sample - 1},
		{sample, 5 * sample, sample},
		{0, 399_999, 399_999}, // the 200k default
	} {
		r := &RMI{keys: data.Dense(tc.n, 0, 1), cfg: Config{SubsampleTop: tc.sample}}
		if xs, _ := r.trainTop(); len(xs) != tc.want {
			t.Errorf("SubsampleTop %d, n %d: sampled %d points, want %d", tc.sample, tc.n, len(xs), tc.want)
		}
	}
}
