package ml

import (
	"math"
	"math/rand"
)

// GRU is a character-level gated recurrent unit binary classifier, the
// model of §5.2: "We consider a 16-dimensional GRU with a 32-dimensional
// embedding for each character". The final hidden state feeds a sigmoid
// output trained with log loss (§5.1.1); the output f(x) ∈ [0,1] is read as
// the probability that x is a key.
//
// Gate equations (Cho et al. [24]):
//
//	z_t = σ(W_z·[x_t, h_{t-1}] + b_z)       update gate
//	r_t = σ(W_r·[x_t, h_{t-1}] + b_r)       reset gate
//	ĥ_t = tanh(W_h·[x_t, r_t⊙h_{t-1}] + b_h)
//	h_t = (1-z_t)⊙h_{t-1} + z_t⊙ĥ_t
type GRU struct {
	W      int // hidden width
	E      int // embedding dimension
	V      int // vocabulary size
	maxLen int // truncation length for inputs

	emb []float64 // V × E character embeddings

	// gate weights, each W × (E + W), and biases, each W
	wz, wr, wh []float64
	bz, br, bh []float64

	// output head
	wo []float64 // W
	bo float64
}

// vocabSize covers printable ASCII plus a pad/unknown token at index 0.
const vocabSize = 97

func tokenID(c byte) int {
	if c >= 32 && c < 127 {
		return int(c-32) + 1
	}
	return 0
}

// GRUConfig configures architecture and training.
type GRUConfig struct {
	Width     int // hidden width (paper: 16, 32, 128)
	Embedding int // embedding dimension (paper: 32)
	MaxLen    int // input truncation (§3.5 sets a maximum input length N)
	Epochs    int
	LR        float64 // Adam learning rate
	Seed      int64
}

// NewGRU creates an untrained GRU with random weights.
func NewGRU(cfg GRUConfig) *GRU {
	if cfg.Width <= 0 {
		cfg.Width = 16
	}
	if cfg.Embedding <= 0 {
		cfg.Embedding = 32
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 64
	}
	g := &GRU{W: cfg.Width, E: cfg.Embedding, V: vocabSize, maxLen: cfg.MaxLen}
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := g.E + g.W
	initv := func(n int, scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * scale
		}
		return v
	}
	g.emb = initv(g.V*g.E, 0.1)
	gs := math.Sqrt(1 / float64(in))
	g.wz = initv(g.W*in, gs)
	g.wr = initv(g.W*in, gs)
	g.wh = initv(g.W*in, gs)
	g.bz = make([]float64, g.W)
	g.br = make([]float64, g.W)
	g.bh = make([]float64, g.W)
	g.wo = initv(g.W, math.Sqrt(1/float64(g.W)))
	return g
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Predict returns f(s) ∈ [0,1], the modeled probability that s is a key.
func (g *GRU) Predict(s string) float64 {
	h := make([]float64, g.W)
	xh := make([]float64, g.E+g.W)
	n := len(s)
	if n > g.maxLen {
		n = g.maxLen
	}
	for t := 0; t < n; t++ {
		g.step(tokenID(s[t]), h, xh, nil)
	}
	o := g.bo
	for j := 0; j < g.W; j++ {
		o += g.wo[j] * h[j]
	}
	return sigmoid(o)
}

// gruTrace captures per-step intermediates for backprop.
type gruTrace struct {
	tok        int
	hPrev      []float64
	z, r, hHat []float64
}

// step advances the hidden state in place for one token; when trace is
// non-nil it records intermediates.
func (g *GRU) step(tok int, h, xh []float64, trace *gruTrace) {
	copy(xh[:g.E], g.emb[tok*g.E:(tok+1)*g.E])
	copy(xh[g.E:], h)
	in := g.E + g.W
	var z, r, hh []float64
	if trace != nil {
		trace.tok = tok
		trace.hPrev = append([]float64(nil), h...)
		z = make([]float64, g.W)
		r = make([]float64, g.W)
		hh = make([]float64, g.W)
	} else {
		var zb, rb, hb [128]float64
		z, r, hh = zb[:g.W], rb[:g.W], hb[:g.W]
	}
	for j := 0; j < g.W; j++ {
		sz, sr := g.bz[j], g.br[j]
		rowZ := g.wz[j*in : (j+1)*in]
		rowR := g.wr[j*in : (j+1)*in]
		for k := 0; k < in; k++ {
			sz += rowZ[k] * xh[k]
			sr += rowR[k] * xh[k]
		}
		z[j] = sigmoid(sz)
		r[j] = sigmoid(sr)
	}
	// candidate state uses reset-gated h
	for k := 0; k < g.W; k++ {
		xh[g.E+k] = r[k] * h[k]
	}
	for j := 0; j < g.W; j++ {
		sh := g.bh[j]
		rowH := g.wh[j*in : (j+1)*in]
		for k := 0; k < in; k++ {
			sh += rowH[k] * xh[k]
		}
		hh[j] = math.Tanh(sh)
	}
	for j := 0; j < g.W; j++ {
		h[j] = (1-z[j])*h[j] + z[j]*hh[j]
	}
	if trace != nil {
		trace.z, trace.r, trace.hHat = z, r, hh
	}
}

// Train fits the GRU on labeled strings with Adam on the log loss
// L = -Σ y·log f(x) + (1-y)·log(1-f(x)).
func (g *GRU) Train(pos, neg []string, cfg GRUConfig) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	if cfg.LR <= 0 {
		cfg.LR = 3e-3
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
	rng := rand.New(rand.NewSource(cfg.Seed + 13))

	opt := newAdam(cfg.LR,
		g.emb, g.wz, g.wr, g.wh, g.bz, g.br, g.bh, g.wo)
	grads := opt.zeroGrads()
	gEmb, gWz, gWr, gWh, gBz, gBr, gBh, gWo := grads[0], grads[1], grads[2], grads[3], grads[4], grads[5], grads[6], grads[7]
	var gBo float64

	in := g.E + g.W
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(exs), func(i, j int) { exs[i], exs[j] = exs[j], exs[i] })
		for _, e := range exs {
			n := len(e.s)
			if n > g.maxLen {
				n = g.maxLen
			}
			if n == 0 {
				continue
			}
			// Forward with trace.
			h := make([]float64, g.W)
			xh := make([]float64, in)
			traces := make([]gruTrace, n)
			for t := 0; t < n; t++ {
				g.step(tokenID(e.s[t]), h, xh, &traces[t])
			}
			o := g.bo
			for j := 0; j < g.W; j++ {
				o += g.wo[j] * h[j]
			}
			p := sigmoid(o)
			dO := p - e.y // dL/do for sigmoid + log loss

			// Backward through the output head.
			dh := make([]float64, g.W)
			for j := 0; j < g.W; j++ {
				gWo[j] += dO * h[j]
				dh[j] = dO * g.wo[j]
			}
			gBo += dO

			// BPTT.
			dhNext := dh
			for t := n - 1; t >= 0; t-- {
				tr := &traces[t]
				dhPrev := make([]float64, g.W)
				// h_t = (1-z)⊙hPrev + z⊙hHat
				dz := make([]float64, g.W)
				dhh := make([]float64, g.W)
				for j := 0; j < g.W; j++ {
					dz[j] = dhNext[j] * (tr.hHat[j] - tr.hPrev[j])
					dhh[j] = dhNext[j] * tr.z[j]
					dhPrev[j] += dhNext[j] * (1 - tr.z[j])
				}
				// through tanh: dsh = dhh * (1 - hHat²)
				// ĥ inputs: [emb, r⊙hPrev]
				dr := make([]float64, g.W)
				embOff := tr.tok * g.E
				for j := 0; j < g.W; j++ {
					dsh := dhh[j] * (1 - tr.hHat[j]*tr.hHat[j])
					if dsh == 0 {
						continue
					}
					gBh[j] += dsh
					rowH := g.wh[j*in : (j+1)*in]
					growH := gWh[j*in : (j+1)*in]
					for k := 0; k < g.E; k++ {
						growH[k] += dsh * g.emb[embOff+k]
						gEmb[embOff+k] += dsh * rowH[k]
					}
					for k := 0; k < g.W; k++ {
						rh := tr.r[k] * tr.hPrev[k]
						growH[g.E+k] += dsh * rh
						grad := dsh * rowH[g.E+k]
						dr[k] += grad * tr.hPrev[k]
						dhPrev[k] += grad * tr.r[k]
					}
				}
				// through the z and r sigmoids
				for j := 0; j < g.W; j++ {
					dsz := dz[j] * tr.z[j] * (1 - tr.z[j])
					dsr := dr[j] * tr.r[j] * (1 - tr.r[j])
					if dsz == 0 && dsr == 0 {
						continue
					}
					gBz[j] += dsz
					gBr[j] += dsr
					rowZ := g.wz[j*in : (j+1)*in]
					rowR := g.wr[j*in : (j+1)*in]
					growZ := gWz[j*in : (j+1)*in]
					growR := gWr[j*in : (j+1)*in]
					for k := 0; k < g.E; k++ {
						ev := g.emb[embOff+k]
						growZ[k] += dsz * ev
						growR[k] += dsr * ev
						gEmb[embOff+k] += dsz*rowZ[k] + dsr*rowR[k]
					}
					for k := 0; k < g.W; k++ {
						hp := tr.hPrev[k]
						growZ[g.E+k] += dsz * hp
						growR[g.E+k] += dsr * hp
						dhPrev[k] += dsz*rowZ[g.E+k] + dsr*rowR[g.E+k]
					}
				}
				dhNext = dhPrev
			}

			// Per-example Adam step (batch size 1 keeps memory small).
			opt.step(grads)
			g.bo -= opt.scalarStep(&gBo)
		}
	}
}

// SizeBytes returns the parameter footprint at float64 precision. The
// paper's 0.0259MB figure for W=16/E=32 assumes float32-class storage; we
// report our actual storage and additionally expose SizeBytesQuantized for
// parity with the paper's arithmetic.
func (g *GRU) SizeBytes() int {
	n := len(g.emb) + len(g.wz) + len(g.wr) + len(g.wh) +
		len(g.bz) + len(g.br) + len(g.bh) + len(g.wo) + 1
	return n * 8
}

// NumParams returns the number of trainable parameters.
func (g *GRU) NumParams() int {
	return len(g.emb) + len(g.wz) + len(g.wr) + len(g.wh) +
		len(g.bz) + len(g.br) + len(g.bh) + len(g.wo) + 1
}

// SizeBytesQuantized returns the footprint at float32 storage, matching
// the paper's model-size accounting (0.0259MB ≈ 6.8k params × 4 bytes).
func (g *GRU) SizeBytesQuantized() int { return g.NumParams() * 4 }

// adam is a flat-slice Adam optimizer over several parameter tensors.
type adam struct {
	lr      float64
	params  [][]float64
	m, v    [][]float64
	t       int
	sm, sv  float64 // scalar slot for bo
	beta1   float64
	beta2   float64
	epsilon float64
}

func newAdam(lr float64, params ...[]float64) *adam {
	a := &adam{lr: lr, params: params, beta1: 0.9, beta2: 0.999, epsilon: 1e-8}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

func (a *adam) zeroGrads() [][]float64 {
	g := make([][]float64, len(a.params))
	for i, p := range a.params {
		g[i] = make([]float64, len(p))
	}
	return g
}

// step applies one Adam update from the accumulated grads and zeroes them.
func (a *adam) step(grads [][]float64) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v, g := a.m[i], a.v[i], grads[i]
		for j := range p {
			gj := g[j]
			if gj == 0 {
				continue
			}
			m[j] = a.beta1*m[j] + (1-a.beta1)*gj
			v[j] = a.beta2*v[j] + (1-a.beta2)*gj*gj
			p[j] -= a.lr * (m[j] / c1) / (math.Sqrt(v[j]/c2) + a.epsilon)
			g[j] = 0
		}
	}
}

// scalarStep updates the scalar moment slots and returns the delta to
// subtract from the scalar parameter, zeroing the gradient.
func (a *adam) scalarStep(g *float64) float64 {
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	a.sm = a.beta1*a.sm + (1-a.beta1)**g
	a.sv = a.beta2*a.sv + (1-a.beta2)**g**g
	*g = 0
	return a.lr * (a.sm / c1) / (math.Sqrt(a.sv/c2) + a.epsilon)
}
