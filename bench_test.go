// Root benchmark suite: one testing.B benchmark per paper table/figure,
// plus ablations of the RMI's design choices (error bounds, top model).
// The heavyweight table generators live in internal/experiments (shared
// with cmd/lix-bench); these benches
// measure the individual contenders under the Go benchmark harness so
// `go test -bench=. -benchmem` reproduces every comparison.
//
// Scale: datasets default to 1M keys (paper: 200M), with structure sizes
// derived from N so the paper's keys-per-page, keys-per-leaf and
// occupancy ratios hold. Custom metrics (index size, conflict rates,
// filter sizes) are attached via b.ReportMetric.
package learnedindex_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"learnedindex"
	"learnedindex/internal/bloom"
	"learnedindex/internal/btree"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/fast"
	"learnedindex/internal/hashmap"
	"learnedindex/internal/lookuptable"
	"learnedindex/internal/ml"
	"learnedindex/internal/search"
)

const benchN = 1_000_000

var (
	once     sync.Once
	dMaps    data.Keys
	dWeb     data.Keys
	dLogn    data.Keys
	dDocIDs  data.StringKeys
	dProbes  map[string][]uint64
	dSProbes []string
)

func load() {
	once.Do(func() {
		dMaps = data.Maps(benchN, 1)
		dWeb = data.Weblogs(benchN, 1)
		dLogn = data.LognormalPaper(benchN, 1)
		dDocIDs = data.DocIDs(benchN/10, 1)
		dProbes = map[string][]uint64{
			"Maps":      data.SampleExisting(dMaps, 1<<16, 2),
			"Web":       data.SampleExisting(dWeb, 1<<16, 2),
			"Lognormal": data.SampleExisting(dLogn, 1<<16, 2),
		}
		dSProbes = data.SampleExistingStrings(dDocIDs, 1<<14, 2)
	})
}

func datasets() map[string]data.Keys {
	load()
	return map[string]data.Keys{"Maps": dMaps, "Web": dWeb, "Lognormal": dLogn}
}

// benchLookups runs fn over the probe ring and reports index size.
func benchLookups(b *testing.B, probes []uint64, sizeBytes int, fn func(uint64) int) {
	b.Helper()
	b.ReportMetric(float64(sizeBytes), "index-bytes")
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += fn(probes[i&(1<<16-1)])
	}
	_ = sink
}

// --- Figure 4: Learned Index vs B-Tree --------------------------------

func BenchmarkFigure4BTree(b *testing.B) {
	for name, keys := range datasets() {
		for _, ps := range []int{32, 64, 128, 256, 512} {
			bt := btree.New([]uint64(keys), ps)
			b.Run(name+"/page"+itoa(ps), func(b *testing.B) {
				benchLookups(b, dProbes[name], bt.SizeBytes(), bt.Lookup)
			})
		}
	}
}

func BenchmarkFigure4Learned(b *testing.B) {
	// Second-stage sizes at the paper's keys-per-leaf ratios
	// (10k/50k/100k/200k models per 200M keys). The top model family is the
	// grid-search winner at this scale (linear; scalar Go pays ~300ns for a
	// 2x16 NN that SIMD C++ runs in tens of ns).
	for name, keys := range datasets() {
		for _, perLeaf := range []int{20000, 4000, 2000, 1000} {
			cfg := core.DefaultConfig(len(keys) / perLeaf)
			r := core.New(keys, cfg)
			b.Run(name+"/perLeaf"+itoa(perLeaf), func(b *testing.B) {
				b.ReportMetric(float64(r.MaxAbsErr()), "max-err")
				benchLookups(b, dProbes[name], r.SizeBytes(), r.Lookup)
			})
		}
	}
}

func BenchmarkFigure4ModelOnly(b *testing.B) {
	// The "Model (ns)" column: model execution without the final search.
	for name, keys := range datasets() {
		cfg := core.DefaultConfig(len(keys) / 2000)
		r := core.New(keys, cfg)
		b.Run(name, func(b *testing.B) {
			benchLookups(b, dProbes[name], r.SizeBytes(), func(k uint64) int {
				p, _, _ := r.Predict(k)
				return p
			})
		})
	}
}

// --- Figure 5: Alternative baselines (Lognormal) ----------------------

func BenchmarkFigure5LookupTable(b *testing.B) {
	load()
	t := lookuptable.New(dLogn)
	benchLookups(b, dProbes["Lognormal"], t.SizeBytes(), t.Lookup)
}

func BenchmarkFigure5FAST(b *testing.B) {
	load()
	t := fast.New(dLogn)
	benchLookups(b, dProbes["Lognormal"], t.SizeBytes(), t.Lookup)
}

func BenchmarkFigure5FixedSizeBTree(b *testing.B) {
	load()
	cfg := core.DefaultConfig(benchN / 500)
	cfg.Top = core.TopMultivariate
	rmi := core.New(dLogn, cfg)
	t := btree.NewFixedSize(dLogn, rmi.SizeBytes())
	benchLookups(b, dProbes["Lognormal"], t.SizeBytes(), t.Lookup)
}

func BenchmarkFigure5MultivariateLearned(b *testing.B) {
	load()
	cfg := core.DefaultConfig(benchN / 500)
	cfg.Top = core.TopMultivariate
	rmi := core.New(dLogn, cfg)
	benchLookups(b, dProbes["Lognormal"], rmi.SizeBytes(), rmi.Lookup)
}

// --- Figure 6: String data ---------------------------------------------

func benchStringLookups(b *testing.B, sizeBytes int, fn func(string) int) {
	b.Helper()
	b.ReportMetric(float64(sizeBytes), "index-bytes")
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += fn(dSProbes[i&(1<<14-1)])
	}
	_ = sink
}

func BenchmarkFigure6BTree(b *testing.B) {
	load()
	for _, ps := range []int{32, 64, 128, 256} {
		bt := btree.New([]string(dDocIDs), ps)
		b.Run("page"+itoa(ps), func(b *testing.B) {
			benchStringLookups(b, bt.SizeBytes(), bt.Lookup)
		})
	}
}

func BenchmarkFigure6Learned(b *testing.B) {
	load()
	leaves := len(dDocIDs) / 1000
	for _, spec := range []struct {
		name   string
		hidden []int
		thresh int
		search core.SearchKind
	}{
		{"1hidden", []int{16}, 0, core.SearchModelBiased},
		{"2hidden", []int{16, 16}, 0, core.SearchModelBiased},
		{"hybrid-t128-1hidden", []int{16}, 128, core.SearchModelBiased},
		{"hybrid-t64-1hidden", []int{16}, 64, core.SearchModelBiased},
		{"QS-1hidden", []int{16}, 0, core.SearchQuaternary},
	} {
		cfg := core.DefaultStringConfig(leaves, spec.hidden...)
		cfg.HybridThreshold = spec.thresh
		cfg.Search = spec.search
		r := core.NewString(dDocIDs, cfg)
		b.Run(spec.name, func(b *testing.B) {
			benchStringLookups(b, r.SizeBytes(), r.Lookup)
		})
	}
}

// --- Figure 8: Hash conflict reduction ---------------------------------

func BenchmarkFigure8Conflicts(b *testing.B) {
	for name, keys := range datasets() {
		b.Run(name, func(b *testing.B) {
			slots := len(keys)
			hcfg := core.DefaultConfig(len(keys) / 20)
			lh := core.NewLearnedHashFromRMI(core.New(keys, hcfg), slots)
			model := core.MeasureConflicts(keys, slots, lh.Hash)
			random := core.MeasureConflicts(keys, slots, core.RandomHashFunc(slots))
			b.ReportMetric(model.ConflictRate()*100, "model-conflict-%")
			b.ReportMetric(random.ConflictRate()*100, "random-conflict-%")
			b.ReportMetric((1-model.ConflictRate()/random.ConflictRate())*100, "reduction-%")
			// Time the learned hash itself.
			probes := dProbes[benchProbeName(name)]
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += lh.Hash(probes[i&(1<<16-1)])
			}
			_ = sink
		})
	}
}

func benchProbeName(name string) string { return name }

// --- Figure 10 / Appendix E: Learned Bloom filters ---------------------

func BenchmarkFigure10LearnedBloom(b *testing.B) {
	corpus := data.URLs(20_000, 40_000, 1)
	lcfg := ml.DefaultLogisticConfig()
	lcfg.Bits = 11
	m := ml.NewLogisticNGram(lcfg)
	m.Train(corpus.Keys, corpus.TrainNeg, lcfg)
	for _, target := range []float64{0.01, 0.001} {
		std := bloom.New(len(corpus.Keys), target)
		lb := core.NewLearnedBloom(m, corpus.Keys, corpus.ValidNeg, target)
		b.Run("fpr"+ftoa(target), func(b *testing.B) {
			b.ReportMetric(float64(std.SizeBytes()), "bloom-bytes")
			b.ReportMetric(float64(lb.SizeBytesQuantized()), "learned-bytes")
			b.ReportMetric(lb.MeasureFPR(corpus.TestNeg)*100, "test-fpr-%")
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				if lb.MayContain(corpus.Keys[i%len(corpus.Keys)]) {
					sink++
				}
			}
			_ = sink
		})
	}
}

func BenchmarkAppendixEModelHashBloom(b *testing.B) {
	corpus := data.URLs(20_000, 40_000, 1)
	lcfg := ml.DefaultLogisticConfig()
	lcfg.Bits = 11
	m := ml.NewLogisticNGram(lcfg)
	m.Train(corpus.Keys, corpus.TrainNeg, lcfg)
	mh := core.NewModelHashBloom(m, corpus.Keys, corpus.ValidNeg, 1<<18, 0.01)
	b.ReportMetric(float64(mh.SizeBytesQuantized()), "bytes")
	b.ReportMetric(mh.MeasureFPR(corpus.TestNeg)*100, "test-fpr-%")
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		if mh.MayContain(corpus.Keys[i%len(corpus.Keys)]) {
			sink++
		}
	}
	_ = sink
}

// --- Figure 11 (Appendix B): chained hash map --------------------------

func BenchmarkFigure11ChainedMap(b *testing.B) {
	load()
	keys := dMaps
	hcfg := core.DefaultConfig(len(keys) / 20)
	hrmi := core.New(keys, hcfg)
	for _, pct := range []int{75, 100, 125} {
		slots := len(keys) * pct / 100
		for _, hs := range []struct {
			name string
			fn   hashmap.HashFunc
		}{
			{"model", core.NewLearnedHashFromRMI(hrmi, slots).Hash},
			{"random", hashmap.HashFunc(core.RandomHashFunc(slots))},
		} {
			m := hashmap.NewChained(slots, hs.fn)
			for i, k := range keys {
				m.Insert(hashmap.Record{Key: k, Payload: k, Meta: uint32(i)})
			}
			b.Run("slots"+itoa(pct)+"/"+hs.name, func(b *testing.B) {
				b.ReportMetric(float64(m.EmptyBytes()), "empty-bytes")
				probes := dProbes["Maps"]
				b.ResetTimer()
				var sink uint64
				for i := 0; i < b.N; i++ {
					r, _ := m.Lookup(probes[i&(1<<16-1)])
					sink += r.Payload
				}
				_ = sink
			})
		}
	}
}

// --- Table 1 (Appendix C): hash-map alternatives ------------------------

func BenchmarkTable1Cuckoo(b *testing.B) {
	load()
	keys := dLogn
	for _, spec := range []struct {
		name  string
		build func() interface {
			Lookup(uint64) (hashmap.Record, bool)
			Utilization() float64
		}
	}{
		{"avx-8B-value", func() interface {
			Lookup(uint64) (hashmap.Record, bool)
			Utilization() float64
		} {
			return hashmap.NewAVXCuckoo(len(keys), 4)
		}},
		{"avx-20B-record", func() interface {
			Lookup(uint64) (hashmap.Record, bool)
			Utilization() float64
		} {
			return hashmap.NewAVXCuckoo(len(keys), 12)
		}},
		{"commercial-20B-record", func() interface {
			Lookup(uint64) (hashmap.Record, bool)
			Utilization() float64
		} {
			return hashmap.NewCommercialCuckoo(len(keys), 12)
		}},
	} {
		c := spec.build()
		type inserter interface{ Insert(hashmap.Record) error }
		ins := c.(inserter)
		for i, k := range keys {
			if err := ins.Insert(hashmap.Record{Key: k, Payload: k, Meta: uint32(i)}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(spec.name, func(b *testing.B) {
			b.ReportMetric(c.Utilization()*100, "utilization-%")
			probes := dProbes["Lognormal"]
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				r, _ := c.Lookup(probes[i&(1<<16-1)])
				sink += r.Payload
			}
			_ = sink
		})
	}
}

func BenchmarkTable1InPlaceChainedLearned(b *testing.B) {
	load()
	keys := dLogn
	// 2-stage CDF hash (same family as Figure 8); see the Table1 notes in
	// internal/experiments on why a single-stage model clusters too hard on
	// this synthetic lognormal.
	slots := len(keys)
	hcfg := core.DefaultConfig(len(keys) / 20)
	hash := core.NewLearnedHashFromRMI(core.New(keys, hcfg), slots).Hash
	recs := make([]hashmap.Record, len(keys))
	for i, k := range keys {
		recs[i] = hashmap.Record{Key: k, Payload: k, Meta: uint32(i)}
	}
	m := hashmap.BuildInPlaceChained(recs, slots, hash)
	b.ReportMetric(m.Utilization()*100, "utilization-%")
	probes := dProbes["Lognormal"]
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		r, _ := m.Lookup(probes[i&(1<<16-1)])
		sink += r.Payload
	}
	_ = sink
}

// --- Serving layer: concurrent batch lookups -----------------------------

// BenchmarkServeSingleThreadLookup is the baseline the serving layer is
// measured against: per-key lookups on one goroutine over one RMI.
func BenchmarkServeSingleThreadLookup(b *testing.B) {
	load()
	r := core.New(dMaps, core.DefaultConfig(benchN/2000))
	benchLookups(b, dProbes["Maps"], r.SizeBytes(), r.Lookup)
}

// BenchmarkServeLookupBatch prices the batched lookup path on a single
// goroutine (one op = one 512-probe batch).
func BenchmarkServeLookupBatch(b *testing.B) {
	load()
	st := learnedindex.NewStore(dMaps, learnedindex.Config{}, learnedindex.StoreOptions{})
	defer st.Close()
	probes := dProbes["Maps"]
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		off := (n * 512) & (1<<16 - 1)
		n++
		st.LookupBatch(probes[off : off+512])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/key")
}

// BenchmarkServeLookupBatchParallel fans batches across GOMAXPROCS
// goroutines; reads are lock-free so throughput scales with cores.
func BenchmarkServeLookupBatchParallel(b *testing.B) {
	load()
	st := learnedindex.NewStore(dMaps, learnedindex.Config{}, learnedindex.StoreOptions{})
	defer st.Close()
	probes := dProbes["Maps"]
	var cursor int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			off := int(atomic.AddInt64(&cursor, 512)) & (1<<16 - 1)
			st.LookupBatch(probes[off : off+512])
		}
	})
}

// BenchmarkServeInsertThroughput measures inserts into an in-memory store
// (the engine's background drains included) through the concurrent write
// path.
func BenchmarkServeInsertThroughput(b *testing.B) {
	load()
	st := learnedindex.NewStore(dMaps, learnedindex.Config{}, learnedindex.StoreOptions{})
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Insert(uint64(i) * 2654435761)
	}
}

// --- §2.3: the naïve learned index --------------------------------------

func BenchmarkNaiveInterpretedModel(b *testing.B) {
	load()
	keys := dWeb[:200_000]
	ni := core.NewNaive(keys, 1)
	probes := data.SampleExisting(keys, 1<<14, 3)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += ni.PredictInterpreted(probes[i&(1<<14-1)])
	}
	_ = sink
}

func BenchmarkNaiveNativeModel(b *testing.B) {
	load()
	keys := dWeb[:200_000]
	ni := core.NewNaive(keys, 1)
	probes := data.SampleExisting(keys, 1<<14, 3)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += ni.PredictNative(probes[i&(1<<14-1)])
	}
	_ = sink
}

func BenchmarkNaiveBinarySearchWholeArray(b *testing.B) {
	load()
	keys := dWeb[:200_000]
	probes := data.SampleExisting(keys, 1<<14, 3)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += search.Binary(keys, probes[i&(1<<14-1)], 0, len(keys))
	}
	_ = sink
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationErrorBounds compares per-leaf error windows (stored
// min/max per model, the paper's design) against a single global bound.
func BenchmarkAblationErrorBounds(b *testing.B) {
	load()
	r := core.New(dWeb, core.DefaultConfig(benchN/2000))
	gmax := r.MaxAbsErr()
	b.Run("per-leaf", func(b *testing.B) {
		benchLookups(b, dProbes["Web"], r.SizeBytes(), r.Lookup)
	})
	b.Run("global", func(b *testing.B) {
		keys := r.Keys()
		benchLookups(b, dProbes["Web"], r.SizeBytes(), func(k uint64) int {
			pred, _, _ := r.Predict(k)
			lo, hi := pred-gmax, pred+gmax+1
			if lo < 0 {
				lo = 0
			}
			if hi > len(keys) {
				hi = len(keys)
			}
			return search.ModelBiasedBinary(keys, k, lo, hi, pred)
		})
	})
}

// BenchmarkAblationTopModel compares stage-1 model families at a fixed
// leaf budget.
func BenchmarkAblationTopModel(b *testing.B) {
	load()
	for _, spec := range []struct {
		name   string
		top    core.TopKind
		hidden []int
	}{
		{"linear", core.TopLinear, nil},
		{"multivariate", core.TopMultivariate, nil},
		{"nn16", core.TopNN, []int{16}},
		{"nn16x16", core.TopNN, []int{16, 16}},
	} {
		cfg := core.DefaultConfig(benchN / 2000)
		cfg.Top = spec.top
		cfg.Hidden = spec.hidden
		r := core.New(dLogn, cfg)
		b.Run(spec.name, func(b *testing.B) {
			b.ReportMetric(float64(r.MaxAbsErr()), "max-err")
			b.ReportMetric(r.MeanAbsErr(), "mean-err")
			benchLookups(b, dProbes["Lognormal"], r.SizeBytes(), r.Lookup)
		})
	}
}

// BenchmarkTraining measures RMI build time (§3.6: "for 200M records
// training a simple RMI index does not take much longer than a few
// seconds" — scaled here).
func BenchmarkTraining(b *testing.B) {
	load()
	for i := 0; i < b.N; i++ {
		r := learnedindex.New(dLogn, learnedindex.DefaultConfig(benchN/2000))
		if r.NumLeaves() == 0 {
			b.Fatal("bad build")
		}
	}
}

// --- helpers -------------------------------------------------------------

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(v float64) string {
	switch v {
	case 0.01:
		return "1pct"
	case 0.001:
		return "0.1pct"
	}
	return "x"
}
