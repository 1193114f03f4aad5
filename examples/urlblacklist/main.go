// URL blacklist: the §5.2 existence-index scenario — a phishing-URL filter
// that must never miss a blacklisted page (zero false negatives) while
// minimizing memory and false positives. Builds a learned Bloom filter
// (classifier + overflow filter) and the Appendix E model-hash variant, and
// compares both against a standard Bloom filter.
//
// The second half layers the exact tier on top: the same blacklist in a
// string-keyed Store over the order-preserving key codec. The filters
// answer "definitely not listed / maybe listed" from kilobytes; the store
// resolves the maybes exactly, and — because codec order is byte order —
// answers the queries no filter can: stream every listed URL under a
// domain prefix, or count them without iterating.
package main

import (
	"fmt"
	"sort"
	"strings"

	"learnedindex"

	"learnedindex/internal/bloom"
	"learnedindex/internal/data"
)

func main() {
	corpus := data.URLs(20_000, 40_000, 5)
	fmt.Printf("blacklist: %d phishing URLs; %d/%d/%d train/valid/test non-keys\n\n",
		len(corpus.Keys), len(corpus.TrainNeg), len(corpus.ValidNeg), len(corpus.TestNeg))

	// The classifier: hashed character 3-grams + logistic regression — the
	// cheap end of the §5.2 design space (the paper's GRU plugs into the
	// same Classifier interface; see lix-bench figure10 -gru).
	cfg := bloom.DefaultLogisticConfig()
	cfg.Bits = 11
	model := bloom.NewLogisticNGram(cfg)
	model.Train(corpus.Keys, corpus.TrainNeg, cfg)

	fmt.Printf("%-28s %12s %12s %8s\n", "filter", "memory (KB)", "test FPR", "FNR")
	for _, target := range []float64{0.01, 0.001} {
		std := bloom.New(len(corpus.Keys), target)
		for _, k := range corpus.Keys {
			std.Add(k)
		}
		lb := bloom.NewLearnedBloom(model, corpus.Keys, corpus.ValidNeg, target)
		mh := bloom.NewModelHashBloom(model, corpus.Keys, corpus.ValidNeg, 1<<18, target)

		measure := func(f func(string) bool) float64 {
			fp := 0
			for _, s := range corpus.TestNeg {
				if f(s) {
					fp++
				}
			}
			return float64(fp) / float64(len(corpus.TestNeg))
		}
		fmt.Printf("target FPR %.2f%%:\n", target*100)
		fmt.Printf("%-28s %12.1f %11.3f%% %8s\n", "  standard Bloom",
			float64(std.SizeBytes())/1024, measure(std.MayContain)*100, "-")
		fmt.Printf("%-28s %12.1f %11.3f%% %7.0f%%\n", "  learned (5.1.1)",
			float64(lb.SizeBytesQuantized())/1024, measure(lb.MayContain)*100,
			lb.FNR(len(corpus.Keys))*100)
		fmt.Printf("%-28s %12.1f %11.3f%% %8s\n", "  model-hash (5.1.2)",
			float64(mh.SizeBytesQuantized())/1024, measure(mh.MayContain)*100, "-")

		// The invariant that matters: zero false negatives.
		for _, k := range corpus.Keys {
			if !lb.MayContain(k) || !mh.MayContain(k) || !std.MayContain(k) {
				fmt.Println("FALSE NEGATIVE — invariant broken!")
				return
			}
		}
		fmt.Println("  (all blacklisted URLs still caught — zero false negatives)")
	}

	// --- The exact tier: the same blacklist as a string-keyed Store ----
	// The filters above answer from kilobytes but can only say "maybe".
	// The codec-backed store holds the exact list: resolve the maybes,
	// and serve the ordered queries no existence index can — every listed
	// URL under a prefix, streamed or counted in codec (byte) order.
	st := learnedindex.NewStringStore(corpus.Keys, learnedindex.Config{}, learnedindex.StoreOptions{})
	defer st.Close()

	fmt.Printf("\nexact tier: string-keyed store over %d listed URLs\n", st.Len())
	exact, falsePos := 0, 0
	lb := bloom.NewLearnedBloom(model, corpus.Keys, corpus.ValidNeg, 0.01)
	for _, s := range corpus.TestNeg {
		if lb.MayContain(s) { // filter says maybe — resolve exactly
			falsePos++
			if st.ContainsString(s) {
				exact++
			}
		}
	}
	fmt.Printf("  %d filter maybes on benign traffic, %d confirmed listed after exact lookup\n",
		falsePos, exact)

	// A takedown sweep: everything listed under one phishing domain. The
	// upper bound is the prefix's byte successor, so the scan is exactly
	// "keys with this prefix" — in order, without touching the rest.
	sorted := append([]string(nil), corpus.Keys...)
	sort.Strings(sorted)
	sample := sorted[len(sorted)/2]
	prefix := sample
	if i := strings.Index(strings.TrimPrefix(sample, "http://"), "."); i >= 0 {
		prefix = sample[:len("http://")+i+1] // scheme + first domain label
	}
	hi := prefix[:len(prefix)-1] + string(prefix[len(prefix)-1]+1)
	n := st.CountRangeString(prefix, hi) // learned COUNT: no iteration
	fmt.Printf("  %d listed URLs under %s (counted by position arithmetic):\n", n, prefix)
	it := st.ScanString(prefix, hi)
	shown := 0
	for it.Next() && shown < 3 {
		fmt.Printf("    %s\n", it.Key())
		shown++
	}
	it.Close()
	if n > shown {
		fmt.Printf("    ... and %d more\n", n-shown)
	}
}
