package ml

import (
	"math"
	"math/rand"
)

// NN is a fully-connected feed-forward network with ReLU activations and a
// linear output — the paper's model family: "simple neural nets with zero
// to two fully-connected hidden layers and ReLU activation functions and a
// layer width of up to 32 neurons" (§3.3). A zero-hidden-layer NN is
// equivalent to linear regression.
//
// Inputs may be scalars (integer keys) or vectors (tokenized strings,
// §3.5). Internally the key is min-max normalized to [0,1] and the target
// position to [0,1]; Predict undoes the scaling, so the API speaks raw keys
// and raw positions like every other model.
type NN struct {
	inDim   int
	widths  []int // hidden layer widths
	w       [][]float64
	b       [][]float64
	inLo    []float64 // per-input-dim normalization
	inScale []float64
	outLo   float64
	outHi   float64
}

// NNConfig configures architecture and training.
type NNConfig struct {
	Hidden    []int   // hidden layer widths (0, 1 or 2 entries; each <= 32 per §3.3)
	Epochs    int     // passes over the (shuffled) training data
	BatchSize int     // minibatch size
	LR        float64 // Adagrad base learning rate
	Seed      int64
	MaxSample int // cap on training points ("those models converge often even before a single scan", §3.6)
}

// DefaultNNConfig returns the configuration used by the RMI grid search for
// a given hidden-layer spec.
func DefaultNNConfig(hidden ...int) NNConfig {
	return NNConfig{Hidden: hidden, Epochs: 4, BatchSize: 64, LR: 0.1, Seed: 1, MaxSample: 200_000}
}

// TrainNN fits the network to scalar inputs xs with targets ys.
func TrainNN(xs, ys []float64, cfg NNConfig) *NN {
	vecs := make([][]float64, len(xs))
	for i := range xs {
		vecs[i] = xs[i : i+1]
	}
	return TrainNNVec(vecs, ys, cfg)
}

// TrainNNVec fits the network to vector inputs.
func TrainNNVec(xs [][]float64, ys []float64, cfg NNConfig) *NN {
	inDim := 1
	if len(xs) > 0 {
		inDim = len(xs[0])
	}
	n := &NN{inDim: inDim, widths: cfg.Hidden}
	n.initNorm(xs, ys)
	n.initWeights(cfg.Seed)
	if len(xs) == 0 {
		return n
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.1
	}
	// Optional subsampling: the top model "converges often even before a
	// single scan over the entire randomized data" (§3.6).
	idx := samplePerm(len(xs), cfg.MaxSample, cfg.Seed)

	// Adagrad accumulators mirror the weight shapes.
	gw := make([][]float64, len(n.w))
	gb := make([][]float64, len(n.b))
	for l := range n.w {
		gw[l] = make([]float64, len(n.w[l]))
		gb[l] = make([]float64, len(n.b[l]))
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	dims := n.layerDims()
	acts := make([][]float64, len(dims))   // activations per layer (post-ReLU)
	deltas := make([][]float64, len(dims)) // gradients per layer
	for l, d := range dims {
		acts[l] = make([]float64, d)
		deltas[l] = make([]float64, d)
	}
	xnorm := make([]float64, inDim)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for bi := 0; bi < len(idx); bi += cfg.BatchSize {
			be := bi + cfg.BatchSize
			if be > len(idx) {
				be = len(idx)
			}
			// Accumulate gradients over the minibatch.
			gradW := make([][]float64, len(n.w))
			gradB := make([][]float64, len(n.b))
			for l := range n.w {
				gradW[l] = make([]float64, len(n.w[l]))
				gradB[l] = make([]float64, len(n.b[l]))
			}
			for _, i := range idx[bi:be] {
				n.normalize(xs[i], xnorm)
				yt := (ys[i] - n.outLo) / (n.outHi - n.outLo)
				n.forward(xnorm, acts)
				// Output delta: d(MSE)/d(out) = 2*(pred-y); constant folded.
				out := acts[len(acts)-1][0]
				deltas[len(deltas)-1][0] = out - yt
				n.backward(xnorm, acts, deltas, gradW, gradB)
			}
			inv := 1.0 / float64(be-bi)
			for l := range n.w {
				for j := range n.w[l] {
					g := gradW[l][j] * inv
					gw[l][j] += g * g
					n.w[l][j] -= cfg.LR * g / (math.Sqrt(gw[l][j]) + 1e-8)
				}
				for j := range n.b[l] {
					g := gradB[l][j] * inv
					gb[l][j] += g * g
					n.b[l][j] -= cfg.LR * g / (math.Sqrt(gb[l][j]) + 1e-8)
				}
			}
		}
	}
	return n
}

// layerDims returns the activation dimensions per layer, output last.
func (n *NN) layerDims() []int {
	dims := make([]int, 0, len(n.widths)+1)
	dims = append(dims, n.widths...)
	return append(dims, 1)
}

func (n *NN) initNorm(xs [][]float64, ys []float64) {
	n.inLo = make([]float64, n.inDim)
	n.inScale = make([]float64, n.inDim)
	for d := 0; d < n.inDim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			v := xs[i][d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(xs) == 0 || hi <= lo {
			lo, hi = 0, 1
		}
		n.inLo[d] = lo
		n.inScale[d] = 1 / (hi - lo)
	}
	n.outLo, n.outHi = math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		if y < n.outLo {
			n.outLo = y
		}
		if y > n.outHi {
			n.outHi = y
		}
	}
	if len(ys) == 0 || n.outHi <= n.outLo {
		n.outLo, n.outHi = 0, 1
	}
}

func (n *NN) initWeights(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	prev := n.inDim
	dims := n.layerDims()
	n.w = make([][]float64, len(dims))
	n.b = make([][]float64, len(dims))
	for l, d := range dims {
		n.w[l] = make([]float64, prev*d)
		n.b[l] = make([]float64, d)
		// He initialization for ReLU layers; Xavier-ish for the output.
		scale := math.Sqrt(2 / float64(prev))
		for j := range n.w[l] {
			n.w[l][j] = rng.NormFloat64() * scale
		}
		prev = d
	}
	// Bias the linear output toward the identity map: with normalized
	// inputs and outputs the CDF is roughly y ≈ x, so start near it.
	if len(dims) == 1 && n.inDim == 1 {
		n.w[0][0] = 1
		n.b[0][0] = 0
	}
}

func (n *NN) normalize(x, dst []float64) {
	for d := 0; d < n.inDim; d++ {
		dst[d] = (x[d] - n.inLo[d]) * n.inScale[d]
	}
}

// forward fills acts with the post-activation values of each layer.
func (n *NN) forward(x []float64, acts [][]float64) {
	in := x
	for l := range n.w {
		out := acts[l]
		d := len(out)
		prev := len(in)
		for j := 0; j < d; j++ {
			s := n.b[l][j]
			row := n.w[l][j*prev : (j+1)*prev]
			for k, v := range in {
				s += row[k] * v
			}
			if l < len(n.w)-1 && s < 0 { // ReLU on hidden layers only
				s = 0
			}
			out[j] = s
		}
		in = out
	}
}

// backward accumulates gradients given acts and the output delta already
// stored in deltas[last].
func (n *NN) backward(x []float64, acts, deltas [][]float64, gradW, gradB [][]float64) {
	for l := len(n.w) - 1; l >= 0; l-- {
		var in []float64
		if l == 0 {
			in = x
		} else {
			in = acts[l-1]
		}
		prev := len(in)
		d := len(deltas[l])
		if l > 0 {
			for k := range deltas[l-1] {
				deltas[l-1][k] = 0
			}
		}
		for j := 0; j < d; j++ {
			dj := deltas[l][j]
			if dj == 0 {
				continue
			}
			gradB[l][j] += dj
			row := n.w[l][j*prev : (j+1)*prev]
			grow := gradW[l][j*prev : (j+1)*prev]
			for k := 0; k < prev; k++ {
				grow[k] += dj * in[k]
				if l > 0 {
					deltas[l-1][k] += dj * row[k]
				}
			}
		}
		if l > 0 {
			// ReLU derivative: zero the delta where the activation was clipped.
			for k := range deltas[l-1] {
				if acts[l-1][k] <= 0 {
					deltas[l-1][k] = 0
				}
			}
		}
	}
}

// Predict evaluates the network, of any width, on a scalar key: PredictVec
// on a one-element vector.
func (n *NN) Predict(x float64) float64 {
	return n.PredictVec([]float64{x})
}

// PredictVec evaluates the network on a vector input (a scalar key is a
// one-element vector). Inputs up to 64 dimensions and layers up to 32 wide
// (the §3.5 and §3.3 architecture bounds) run on stack scratch without heap
// allocation, keeping model execution in the tens-of-nanoseconds regime the
// paper's generated C++ achieves; any wider shape allocates its scratch.
func (n *NN) PredictVec(x []float64) float64 {
	var xb [64]float64
	var ab, bb [32]float64
	cur, a, b := xb[:], ab[:], bb[:]
	if n.inDim > len(cur) {
		cur = make([]float64, n.inDim)
	}
	width := 0
	for _, w := range n.widths {
		width = max(width, w)
	}
	if width > len(a) {
		a, b = make([]float64, width), make([]float64, width)
	}
	cur = cur[:n.inDim]
	n.normalize(x, cur)
	for l := range n.w {
		d := len(n.b[l])
		prev := len(cur)
		out := a[:d]
		for j := 0; j < d; j++ {
			s := n.b[l][j]
			row := n.w[l][j*prev : (j+1)*prev]
			for k, v := range cur {
				s += row[k] * v
			}
			if l < len(n.w)-1 && s < 0 {
				s = 0
			}
			out[j] = s
		}
		cur, a, b = out, b, a
	}
	return cur[0]*(n.outHi-n.outLo) + n.outLo
}

// NumParams returns the number of weights and biases.
func (n *NN) NumParams() int {
	p := 0
	for l := range n.w {
		p += len(n.w[l]) + len(n.b[l])
	}
	return p
}

// SizeBytes returns the parameter footprint (float64 weights plus
// normalization constants). The paper notes quantization could shrink this
// 4–8×; we charge full precision.
func (n *NN) SizeBytes() int {
	return n.NumParams()*8 + (len(n.inLo)+len(n.inScale)+2)*8
}

// Hidden returns the hidden layer widths.
func (n *NN) Hidden() []int { return n.widths }

// samplePerm returns up to max indices of [0,n) in random order (all of
// them if n <= max).
func samplePerm(n, max int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	if max <= 0 || n <= max {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return rng.Perm(n)[:max]
}
