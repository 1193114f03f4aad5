package experiments

import (
	"fmt"
	"os"
	"sort"
	"time"

	"learnedindex/internal/bench"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/serve"
)

// StringKeysRow is one string-key measurement.
type StringKeysRow struct {
	Config  string
	PerOp   time.Duration
	PerKey  time.Duration
	SpeedUp float64
}

// StringKeys measures the string-keyed stack end to end on the doc-id
// dataset: the order-preserving key codec (8-byte prefixes + suffix
// dictionary) behind core.StringIndex and the string-keyed serve.Store,
// against the two baselines a Go service would otherwise reach for —
// map[string]struct{} for membership and a sorted slice with
// sort.SearchStrings for ordered lookups and scans.
//
//   - membership: map (the unordered champion — no scans, no order) vs
//     StringIndex.Contains vs Store.ContainsString;
//   - lower-bound lookup: sort.SearchStrings vs the codec index's
//     compiled prefix-plan Lookup, standalone and through the store;
//   - range scan throughput: slicing the sorted array (the streaming
//     floor) vs Store.ScanBatchString's loser-tree merge, in memory and
//     over a persistent store of several v2 segments — no string layer
//     holds strings, so what a scan pays per key is 8 prefix bytes plus the
//     suffix copied into a page;
//   - learned COUNT: CountRangeString position arithmetic vs opening the
//     scan and counting.
//
// Emits BENCH_stringkeys.json via Options.JSONDir.
func StringKeys(o Options) []StringKeysRow {
	o = o.withDefaults()
	keys := cachedStrings("docids", o.NStr, o.Seed, func() []string { return data.DocIDs(o.NStr, o.Seed) })
	n := len(keys)
	nProbes := max(1, o.Probes/4)
	probes := data.SampleExistingStrings(data.StringKeys(keys), nProbes, o.Seed+1)

	idx := core.NewStringIndex(keys, core.Config{})
	st := serve.NewString(keys, core.Config{}, serve.Options{Shards: 4, MergeThreshold: 1 << 30})
	defer st.Close()
	// The persistent twin: the same keys as a base segment plus three
	// flushed runs, reopened cold so every index is a decoded one.
	dir, err := os.MkdirTemp(o.Dir, "lix-stringkeys-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	pst := openPersistentStrings(dir, keys)
	defer pst.Close()
	set := make(map[string]struct{}, n)
	for _, k := range keys {
		set[k] = struct{}{}
	}

	var rows []StringKeysRow
	t := &bench.Table{
		Title:   fmt.Sprintf("String keys — %d doc-ids through the key codec", n),
		Headers: []string{"Config", "ns/op", "ns/key", "Speedup"},
	}
	rep := &bench.Report{Experiment: "stringkeys", N: o.NStr, Probes: nProbes}
	add := func(cfg string, perOp, perKey time.Duration, speedup float64, extra map[string]float64) {
		rows = append(rows, StringKeysRow{Config: cfg, PerOp: perOp, PerKey: perKey, SpeedUp: speedup})
		sp, pk := "-", "-"
		if speedup > 0 {
			sp = bench.Factor(speedup)
		}
		if perKey > 0 {
			pk = ns(perKey)
		}
		t.Add(cfg, ns(perOp), pk, sp)
		if extra == nil {
			extra = map[string]float64{}
		}
		if perKey > 0 {
			extra["ns_per_key"] = float64(perKey.Nanoseconds())
		}
		rep.Add(bench.ReportRow{Config: cfg, NsPerOp: float64(perOp.Nanoseconds()), Extra: extra})
	}

	timeOp := func(f func(k string)) time.Duration {
		for _, p := range probes { // warm-up
			f(p)
		}
		start := time.Now()
		for rd := 0; rd < o.Rounds; rd++ {
			for _, p := range probes {
				f(p)
			}
		}
		return time.Since(start) / time.Duration(o.Rounds*len(probes))
	}

	// --- Membership ----------------------------------------------------
	sink := 0
	dMap := timeOp(func(k string) {
		if _, ok := set[k]; ok {
			sink++
		}
	})
	dIdxC := timeOp(func(k string) {
		if idx.Contains(k) {
			sink++
		}
	})
	dStC := timeOp(func(k string) {
		if st.ContainsString(k) {
			sink++
		}
	})
	add("contains/map", dMap, 0, 1, nil)
	add("contains/stringindex", dIdxC, 0, float64(dMap)/float64(dIdxC), nil)
	add("contains/store", dStC, 0, float64(dMap)/float64(dStC), nil)

	// --- Lower-bound lookup --------------------------------------------
	// The ordered query a map cannot answer: position of the first key >=
	// probe. The sorted slice is the baseline; the codec index replaces the
	// full log2(n) string-compare descent with a compiled prefix-plan
	// inference plus a last-mile search.
	dSort := timeOp(func(k string) { sink += sort.SearchStrings(keys, k) })
	dIdx := timeOp(func(k string) { sink += idx.Lookup(k) })
	dSt := timeOp(func(k string) { sink += st.LookupString(k) })
	add("lookup/sorted-slice", dSort, 0, 1, nil)
	add("lookup/stringindex", dIdx, 0, float64(dSort)/float64(dIdx),
		map[string]float64{"speedup_vs_sorted_slice": float64(dSort) / float64(dIdx)})
	add("lookup/store", dSt, 0, float64(dSort)/float64(dSt), nil)
	dPst := timeOp(func(k string) { sink += pst.LookupString(k) })
	add("lookup/store-persistent", dPst, 0, float64(dSort)/float64(dPst), nil)
	_ = sink

	// --- Range scan throughput -----------------------------------------
	starts := data.SampleExistingStrings(data.StringKeys(keys), 64, o.Seed+7)
	width := min(4096, n/4)
	hiFor := func(lo string) string {
		p := sort.SearchStrings(keys, lo) + width
		if p >= n {
			return keys[n-1] + "\xff"
		}
		return keys[p]
	}
	var dCopy, dScan, dPScan time.Duration
	var produced int
	buf := make([]string, 0, width+16)
	for rd := 0; rd < o.Rounds; rd++ {
		for _, lo := range starts {
			hi := hiFor(lo)
			start := time.Now()
			a := sort.SearchStrings(keys, lo)
			b := sort.SearchStrings(keys, hi)
			buf = append(buf[:0], keys[a:b]...)
			dCopy += time.Since(start)
			start = time.Now()
			buf = st.ScanBatchString(lo, hi, buf[:0])
			dScan += time.Since(start)
			produced += len(buf)
			start = time.Now()
			buf = pst.ScanBatchString(lo, hi, buf[:0])
			dPScan += time.Since(start)
		}
	}
	ops := o.Rounds * len(starts)
	if produced > 0 {
		add("scan/sorted-slice-copy", dCopy/time.Duration(ops), dCopy/time.Duration(produced), 1, nil)
		add("scan/store", dScan/time.Duration(ops), dScan/time.Duration(produced),
			float64(dCopy)/float64(dScan),
			map[string]float64{"keys_per_sec": float64(produced) / dScan.Seconds()})
		add("scan/store-persistent", dPScan/time.Duration(ops), dPScan/time.Duration(produced),
			float64(dCopy)/float64(dPScan),
			map[string]float64{"keys_per_sec": float64(produced) / dPScan.Seconds()})
	}

	// --- Learned COUNT vs iterate-and-count ----------------------------
	var dIter, dCount time.Duration
	for rd := 0; rd < o.Rounds; rd++ {
		for _, lo := range starts {
			hi := hiFor(lo)
			start := time.Now()
			it := st.ScanString(lo, hi)
			c := 0
			for it.Next() {
				c++
			}
			it.Close()
			dIter += time.Since(start)
			start = time.Now()
			got := st.CountRangeString(lo, hi)
			dCount += time.Since(start)
			if got != c {
				panic(fmt.Sprintf("CountRangeString(%q,%q)=%d but scan counted %d", lo, hi, got, c))
			}
		}
	}
	add("count/iterate", dIter/time.Duration(ops), 0, 1, nil)
	add("count/learned", dCount/time.Duration(ops), 0, float64(dIter)/float64(dCount),
		map[string]float64{"speedup_vs_iterate": float64(dIter) / float64(dCount)})

	render(o, t)
	emitJSON(o, rep)
	return rows
}

// openPersistentStrings loads keys into a persistent string store under
// dir as four segments of interleaved keys — every segment spans the whole
// range, as flushes of a live store do — and reopens it.
func openPersistentStrings(dir string, keys []string) *serve.Store {
	opt := serve.Options{Dir: dir}
	st, err := serve.OpenString(nil, core.Config{}, opt)
	if err != nil {
		panic(err)
	}
	for part := 0; part < 4; part++ {
		for i := part; i < len(keys); i += 4 {
			st.InsertString(keys[i])
		}
		st.Flush()
	}
	if err := st.Close(); err != nil {
		panic(err)
	}
	if st, err = serve.OpenString(nil, core.Config{}, opt); err != nil {
		panic(err)
	}
	return st
}
