package bloom

import (
	"math"
	"math/rand"

	"learnedindex/internal/hashfn"
)

// LogisticNGram is a hashed character-n-gram logistic regression — a cheap
// existence-index classifier used alongside the GRU in the Figure 10
// reproduction. The paper notes "there is no reason that our model needs to
// use the same features as the Bloom filter" (§5.2); this model is the
// low-cost end of that spectrum: feature extraction is a rolling hash, and
// inference is one dot product.
type LogisticNGram struct {
	n    int // n-gram length
	dims int // hashed feature space size (power of two)
	w    []float64
	b    float64
}

// LogisticConfig configures the model.
type LogisticConfig struct {
	N      int // n-gram length (default 3)
	Bits   int // log2 of feature dimensions (default 16)
	Epochs int
	LR     float64
	L2     float64
	Seed   int64
}

// DefaultLogisticConfig returns a 3-gram model with 2^16 hashed dims.
func DefaultLogisticConfig() LogisticConfig {
	return LogisticConfig{N: 3, Bits: 16, Epochs: 5, LR: 0.2, L2: 1e-6, Seed: 1}
}

// NewLogisticNGram creates an untrained model.
func NewLogisticNGram(cfg LogisticConfig) *LogisticNGram {
	if cfg.N <= 0 {
		cfg.N = 3
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 16
	}
	return &LogisticNGram{n: cfg.N, dims: 1 << cfg.Bits, w: make([]float64, 1<<cfg.Bits)}
}

// features invokes fn with each hashed n-gram index of s.
func (m *LogisticNGram) features(s string, fn func(idx int)) {
	if len(s) < m.n {
		fn(int(hashfn.HashString(s, 0xabcd) & uint64(m.dims-1)))
		return
	}
	for i := 0; i+m.n <= len(s); i++ {
		h := hashfn.HashString(s[i:i+m.n], 0xabcd)
		fn(int(h & uint64(m.dims-1)))
	}
}

// Predict returns the modeled probability that s is a key.
func (m *LogisticNGram) Predict(s string) float64 {
	var sum float64
	cnt := 0
	m.features(s, func(idx int) {
		sum += m.w[idx]
		cnt++
	})
	o := m.b
	if cnt > 0 {
		// Normalize by sqrt(#features) so long strings don't saturate;
		// mirrors the training-time scaling.
		o += sum / math.Sqrt(float64(cnt))
	}
	return sigmoid(o)
}

// Train fits the model with SGD on log loss.
func (m *LogisticNGram) Train(pos, neg []string, cfg LogisticConfig) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.2
	}
	type ex struct {
		s string
		y float64
	}
	exs := make([]ex, 0, len(pos)+len(neg))
	for _, s := range pos {
		exs = append(exs, ex{s, 1})
	}
	for _, s := range neg {
		exs = append(exs, ex{s, 0})
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idxBuf := make([]int, 0, 128)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR / (1 + float64(epoch))
		rng.Shuffle(len(exs), func(i, j int) { exs[i], exs[j] = exs[j], exs[i] })
		for _, e := range exs {
			idxBuf = idxBuf[:0]
			o := m.b
			m.features(e.s, func(idx int) {
				idxBuf = append(idxBuf, idx)
				o += m.w[idx]
			})
			norm := 1.0
			if len(idxBuf) > 0 {
				norm = 1 / math.Sqrt(float64(len(idxBuf)))
				o = (o-m.b)*norm + m.b
			}
			p := sigmoid(o)
			g := p - e.y
			m.b -= lr * g
			gn := lr * g * norm
			for _, idx := range idxBuf {
				m.w[idx] -= gn + lr*cfg.L2*m.w[idx]
			}
		}
	}
}

// SizeBytes returns the weight-vector footprint.
func (m *LogisticNGram) SizeBytes() int { return len(m.w)*8 + 8 }

// SizeBytesQuantized returns the float32-equivalent footprint.
func (m *LogisticNGram) SizeBytesQuantized() int { return len(m.w)*4 + 4 }
