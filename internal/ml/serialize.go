package ml

import (
	"fmt"

	"learnedindex/internal/binenc"
)

// Model serialization: a one-byte family tag followed by the family's
// parameters. This is what lets a trained RMI be written into a segment
// file and served again after a cold open without retraining — the on-disk
// analogue of the paper's "extract the weights into generated code" step
// (§3.1).
const (
	tagLinear       = 1
	tagConstant     = 2
	tagMultivariate = 3
	tagNN           = 4
)

// Decode bounds: hostile inputs must not provoke huge allocations. The
// paper's architectures stop at 2 hidden layers of width 32 (§3.3); the
// caps below leave generous headroom beyond that.
const (
	maxNNLayers = 8
	maxNNWidth  = 1024
	maxNNInDim  = 64
)

// AppendModel appends the tagged encoding of m. Only models a trained RMI
// can hold are supported.
func AppendModel(b []byte, m Model) ([]byte, error) {
	switch t := m.(type) {
	case Linear:
		b = append(b, tagLinear)
		b = binenc.AppendF64(b, t.A)
		return binenc.AppendF64(b, t.B), nil
	case Constant:
		b = append(b, tagConstant)
		return binenc.AppendF64(b, t.C), nil
	case *Multivariate:
		b = append(b, tagMultivariate)
		b = binenc.AppendUvarint(b, uint64(len(t.featIdx)))
		for _, fi := range t.featIdx {
			b = binenc.AppendUvarint(b, uint64(fi))
		}
		b = binenc.AppendF64s(b, t.weights)
		b = binenc.AppendF64s(b, t.mean)
		return binenc.AppendF64s(b, t.invStd), nil
	case *NN:
		b = append(b, tagNN)
		b = binenc.AppendUvarint(b, uint64(t.inDim))
		b = binenc.AppendUvarint(b, uint64(len(t.widths)))
		for _, w := range t.widths {
			b = binenc.AppendUvarint(b, uint64(w))
		}
		for l := range t.w {
			b = binenc.AppendF64s(b, t.w[l])
			b = binenc.AppendF64s(b, t.b[l])
		}
		b = binenc.AppendF64s(b, t.inLo)
		b = binenc.AppendF64s(b, t.inScale)
		b = binenc.AppendF64(b, t.outLo)
		return binenc.AppendF64(b, t.outHi), nil
	default:
		return nil, fmt.Errorf("ml: cannot encode model type %T", m)
	}
}

// DecodeModel reads one tagged model from r. Shapes are validated against
// the decode bounds, so corrupt bytes yield an error, never a panic or an
// oversized allocation.
func DecodeModel(r *binenc.Reader) (Model, error) {
	if r.Remaining() < 1 {
		return nil, binenc.ErrCorrupt
	}
	tag := r.Uvarint()
	switch tag {
	case tagLinear:
		m := Linear{A: r.F64(), B: r.F64()}
		return m, r.Err()
	case tagConstant:
		m := Constant{C: r.F64()}
		return m, r.Err()
	case tagMultivariate:
		menu := StandardFeatures()
		nf := r.Count(len(menu), 1)
		idx := make([]int, nf)
		for i := range idx {
			fi := r.Uvarint()
			if fi >= uint64(len(menu)) {
				return nil, binenc.ErrCorrupt
			}
			idx[i] = int(fi)
		}
		m := &Multivariate{
			featIdx: idx,
			feats:   pick(menu, idx),
			weights: r.F64s(len(menu) + 1),
			mean:    r.F64s(len(menu)),
			invStd:  r.F64s(len(menu)),
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(m.weights) != nf+1 || len(m.mean) != nf || len(m.invStd) != nf {
			return nil, binenc.ErrCorrupt
		}
		return m, nil
	case tagNN:
		inDim := r.Uvarint()
		if inDim < 1 || inDim > maxNNInDim {
			return nil, binenc.ErrCorrupt
		}
		nw := r.Count(maxNNLayers, 1)
		widths := make([]int, nw)
		for i := range widths {
			w := r.Uvarint()
			if w < 1 || w > maxNNWidth {
				return nil, binenc.ErrCorrupt
			}
			widths[i] = int(w)
		}
		n := &NN{inDim: int(inDim), widths: widths}
		dims := n.layerDims()
		n.w = make([][]float64, len(dims))
		n.b = make([][]float64, len(dims))
		prev := n.inDim
		for l, d := range dims {
			n.w[l] = r.F64s(prev * d)
			n.b[l] = r.F64s(d)
			if r.Err() != nil {
				return nil, r.Err()
			}
			if len(n.w[l]) != prev*d || len(n.b[l]) != d {
				return nil, binenc.ErrCorrupt
			}
			prev = d
		}
		n.inLo = r.F64s(n.inDim)
		n.inScale = r.F64s(n.inDim)
		n.outLo = r.F64()
		n.outHi = r.F64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(n.inLo) != n.inDim || len(n.inScale) != n.inDim {
			return nil, binenc.ErrCorrupt
		}
		return n, nil
	default:
		return nil, fmt.Errorf("ml: unknown model tag %d: %w", tag, binenc.ErrCorrupt)
	}
}
