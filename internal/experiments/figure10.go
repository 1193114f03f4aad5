package experiments

import (
	"fmt"

	"learnedindex/internal/bench"
	"learnedindex/internal/bloom"
	"learnedindex/internal/data"
)

// Figure10Point is one (FPR, memory) point of one model series.
type Figure10Point struct {
	Series    string
	TargetFPR float64
	TestFPR   float64
	SizeBytes int
	FNR       float64
}

// Figure10 reproduces "Learned Bloom filter improves memory footprint at a
// wide range of FPRs" (§5.2): the standard Bloom filter curve against
// learned filters built from character-GRU classifiers of three widths
// (W=16, 32, 128 with 32-dim embeddings, as in the figure legend) plus the
// cheap hashed-n-gram logistic model, sweeping the target FPR.
//
// GRU training is the slow part; TrainGRUs=false substitutes the logistic
// model only (used by the quick bench path).
func Figure10(o Options, trainGRUs bool) []Figure10Point {
	o = o.withDefaults()
	corpus := data.URLs(o.NUrl, o.NUrl*2, o.Seed)
	targets := []float64{0.02, 0.01, 0.005, 0.001}

	var pts []Figure10Point
	for _, p := range targets {
		std := bloom.New(len(corpus.Keys), p)
		for _, k := range corpus.Keys {
			std.Add(k)
		}
		fp := 0
		for _, s := range corpus.TestNeg {
			if std.MayContain(s) {
				fp++
			}
		}
		pts = append(pts, Figure10Point{
			Series: "BloomFilter", TargetFPR: p,
			TestFPR:   float64(fp) / float64(len(corpus.TestNeg)),
			SizeBytes: std.SizeBytes(),
		})
	}

	type series struct {
		name  string
		model bloom.Classifier
	}
	var models []series

	lcfg := bloom.DefaultLogisticConfig()
	lcfg.Bits = 10 // keep the model a small fraction of the filter budget
	lgm := bloom.NewLogisticNGram(lcfg)
	lgm.Train(corpus.Keys, corpus.TrainNeg, lcfg)
	models = append(models, series{"Logistic 3-gram", lgm})

	if trainGRUs {
		for _, w := range []int{16, 32, 128} {
			cfg := bloom.GRUConfig{Width: w, Embedding: 32, MaxLen: 64, Epochs: 2, LR: 3e-3, Seed: o.Seed}
			g := bloom.NewGRU(cfg)
			g.Train(corpus.Keys, corpus.TrainNeg, cfg)
			models = append(models, series{fmt.Sprintf("GRU W=%d,E=32", w), g})
		}
	}

	for _, m := range models {
		for _, p := range targets {
			lb := bloom.NewLearnedBloom(m.model, corpus.Keys, corpus.ValidNeg, p)
			pts = append(pts, Figure10Point{
				Series:    m.name,
				TargetFPR: p,
				TestFPR:   lb.MeasureFPR(corpus.TestNeg),
				SizeBytes: lb.SizeBytesQuantized(),
				FNR:       lb.FNR(len(corpus.Keys)),
			})
		}
	}

	if o.Out != nil {
		t := &bench.Table{
			Title:   fmt.Sprintf("Figure 10 — Learned Bloom filter memory vs FPR (%d URL keys)", o.NUrl),
			Headers: []string{"Series", "Target FPR", "Test FPR", "Memory (KB)", "FNR"},
		}
		for _, pt := range pts {
			t.Add(pt.Series,
				fmt.Sprintf("%.3f%%", pt.TargetFPR*100),
				fmt.Sprintf("%.3f%%", pt.TestFPR*100),
				fmt.Sprintf("%.1f", float64(pt.SizeBytes)/1024),
				fmt.Sprintf("%.0f%%", pt.FNR*100))
		}
		render(o, t)
	}
	return pts
}

// AppendixE reproduces the model-hash Bloom filter comparison: for the same
// corpus and classifier, the §5.1.1 classifier+overflow construction vs the
// §5.1.2 discretized model-hash construction across bitmap sizes m.
func AppendixE(o Options) {
	o = o.withDefaults()
	corpus := data.URLs(o.NUrl, o.NUrl*2, o.Seed)
	lcfg := bloom.DefaultLogisticConfig()
	lcfg.Bits = 12
	m := bloom.NewLogisticNGram(lcfg)
	m.Train(corpus.Keys, corpus.TrainNeg, lcfg)

	t := &bench.Table{
		Title:   "Appendix E — Model-hash Bloom filter vs §5.1.1 construction",
		Headers: []string{"Target FPR", "Construction", "Memory (KB)", "Test FPR", "vs standard"},
	}
	for _, p := range []float64{0.01, 0.001} {
		std := bloom.New(len(corpus.Keys), p)
		for _, k := range corpus.Keys {
			std.Add(k)
		}
		stdFP := 0
		for _, s := range corpus.TestNeg {
			if std.MayContain(s) {
				stdFP++
			}
		}
		lb := bloom.NewLearnedBloom(m, corpus.Keys, corpus.ValidNeg, p)
		t.Add(fmt.Sprintf("%.2f%%", p*100), "standard Bloom",
			fmt.Sprintf("%.1f", float64(std.SizeBytes())/1024),
			fmt.Sprintf("%.3f%%", float64(stdFP)/float64(len(corpus.TestNeg))*100), "(1.00x)")
		t.Add("", "classifier+overflow (5.1.1)",
			fmt.Sprintf("%.1f", float64(lb.SizeBytesQuantized())/1024),
			fmt.Sprintf("%.3f%%", lb.MeasureFPR(corpus.TestNeg)*100),
			bench.Factor(float64(lb.SizeBytesQuantized())/float64(std.SizeBytes())))
		for _, mbits := range []int{1 << 16, 1 << 18, 1 << 20} {
			mh := bloom.NewModelHashBloom(m, corpus.Keys, corpus.ValidNeg, mbits, p)
			t.Add("", fmt.Sprintf("model-hash m=%d (5.1.2)", mbits),
				fmt.Sprintf("%.1f", float64(mh.SizeBytesQuantized())/1024),
				fmt.Sprintf("%.3f%%", mh.MeasureFPR(corpus.TestNeg)*100),
				bench.Factor(float64(mh.SizeBytesQuantized())/float64(std.SizeBytes())))
		}
	}
	render(o, t)
}
