package core

import (
	"fmt"

	"learnedindex/internal/binenc"
	"learnedindex/internal/ml"
)

// RMI serialization. The encoding holds everything a trained index knows
// except the key array itself — config, top model, inner stage models and
// leaves with their error windows — so a segment file stores keys once and
// the model binds to them at decode time. This is the storage engine's "no
// retraining on cold open" contract: DecodeRMI rebuilds a serving-ready
// index from bytes plus the externally stored sorted keys.
//
// The layout keeps slots for settings the RMI no longer has: a per-index
// search strategy, and the hybrid B-Tree leaves (a threshold, a page size,
// a block per leaf and a count) that only StringRMI builds now. The
// encoder writes what an index without them always wrote — 0, 0, 32, an
// empty block, 0 — and the decoder reads past whatever an older encoder
// stored there (see DecodeRMI).
//
// Bump rmiFormatVersion on any layout change; the segment magic in
// internal/storage should move with it so old files fail cleanly.
const rmiFormatVersion = 1

// Decode bounds, sized well past anything New can produce at sane scale
// while keeping hostile counts from allocating gigabytes.
const (
	maxStages    = 16
	maxHiddenLen = 8
)

// AppendBinary appends the RMI's encoding (keys excluded) to b. It fails
// only on a top model ml.AppendModel cannot encode, which no trainer
// builds.
func (r *RMI) AppendBinary(b []byte) ([]byte, error) {
	b = binenc.AppendUvarint(b, rmiFormatVersion)
	b = binenc.AppendUvarint(b, uint64(len(r.keys)))

	// Config.
	b = binenc.AppendUvarint(b, uint64(r.cfg.Top))
	b = binenc.AppendUvarint(b, uint64(len(r.cfg.Hidden)))
	for _, h := range r.cfg.Hidden {
		b = binenc.AppendUvarint(b, uint64(h))
	}
	b = binenc.AppendUvarint(b, uint64(len(r.cfg.StageSizes)))
	for _, s := range r.cfg.StageSizes {
		b = binenc.AppendUvarint(b, uint64(s))
	}
	b = binenc.AppendUvarint(b, 0) // retired search slot
	b = binenc.AppendVarint(b, 0)  // retired hybrid threshold slot
	b = binenc.AppendVarint(b, 32) // retired hybrid page-size slot
	b = binenc.AppendVarint(b, int64(r.cfg.SubsampleTop))
	b = binenc.AppendVarint(b, r.cfg.Seed)

	// Top model.
	tb, err := ml.AppendModel(nil, r.top)
	if err != nil {
		return nil, fmt.Errorf("core: encode RMI top: %w", err)
	}
	b = binenc.AppendBytes(b, tb)

	// Inner stages.
	b = binenc.AppendUvarint(b, uint64(len(r.stages)))
	for _, st := range r.stages {
		b = binenc.AppendUvarint(b, uint64(len(st)))
		for _, m := range st {
			b = binenc.AppendF64(b, m.a)
			b = binenc.AppendF64(b, m.b)
		}
	}

	// Leaves.
	b = binenc.AppendUvarint(b, uint64(len(r.leaves)))
	for i := range r.leaves {
		lf := &r.leaves[i]
		b = binenc.AppendF64(b, lf.m.a)
		b = binenc.AppendF64(b, lf.m.b)
		b = binenc.AppendVarint(b, int64(lf.minErr))
		b = binenc.AppendVarint(b, int64(lf.maxErr))
		b = binenc.AppendF64(b, float64(lf.stdErr))
		b = binenc.AppendVarint(b, int64(lf.n))
		b = binenc.AppendUvarint(b, 0) // retired hybrid block: none
	}

	// Reporting stats.
	b = binenc.AppendF64(b, r.meanAbsErr)
	b = binenc.AppendVarint(b, int64(r.maxAbsErr))
	b = binenc.AppendVarint(b, 0) // retired hybrid count slot
	return b, nil
}

// DecodeRMI rebuilds a serving-ready RMI from enc, binding it to keys —
// the same sorted unique array the encoded index was trained over (the
// stored key count is cross-checked). Every structural invariant the
// lookup path relies on is validated, so corrupt bytes produce an error,
// never a panic at decode or lookup time.
func DecodeRMI(enc []byte, keys []uint64) (*RMI, error) {
	rd := binenc.NewReader(enc)
	if v := rd.Uvarint(); v != rmiFormatVersion {
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		return nil, fmt.Errorf("core: RMI format version %d, want %d: %w", v, rmiFormatVersion, binenc.ErrCorrupt)
	}
	if n := rd.Uvarint(); n != uint64(len(keys)) {
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		return nil, fmt.Errorf("core: RMI trained over %d keys, bound to %d: %w", n, len(keys), binenc.ErrCorrupt)
	}

	r := &RMI{keys: keys, nf: float64(len(keys))}
	r.cfg.Top = TopKind(rd.Uvarint())
	nh := rd.Count(maxHiddenLen, 1)
	for i := 0; i < nh; i++ {
		r.cfg.Hidden = append(r.cfg.Hidden, int(rd.Uvarint()))
	}
	ns := rd.Count(maxStages, 1)
	for i := 0; i < ns; i++ {
		r.cfg.StageSizes = append(r.cfg.StageSizes, int(rd.Uvarint()))
	}
	// The retired search slot: encoders before the compiled plan became
	// the only read path stored a per-index search strategy here. Any
	// value decodes; the plan runs one search whatever it says. The hybrid
	// threshold slot likewise decodes whatever it holds; the page size
	// was always at least 1.
	_ = rd.Uvarint()
	_ = rd.Varint()
	pageSize := rd.Varint()
	r.cfg.SubsampleTop = int(rd.Varint())
	r.cfg.Seed = rd.Varint()
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if ns == 0 || pageSize < 1 {
		return nil, binenc.ErrCorrupt
	}
	for _, s := range r.cfg.StageSizes {
		if s < 1 || s > len(enc) {
			return nil, binenc.ErrCorrupt
		}
	}

	top, err := ml.DecodeModel(binenc.NewReader(rd.Bytes()))
	if err != nil {
		return nil, err
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	r.top = top

	// Inner stages: counts must mirror StageSizes[:last] exactly — routeTo
	// indexes r.stages[s-1][idx] with idx < StageSizes[s-1] — except for
	// the empty-index shape: New over zero keys trains no inner stage, even
	// when the zero Config's rule recorded one, and nothing routes.
	nInner := rd.Count(maxStages, 1)
	if nInner != ns-1 && (len(keys) > 0 || nInner != 0) {
		return nil, binenc.ErrCorrupt
	}
	for s := 0; s < nInner; s++ {
		size := rd.Count(len(enc), 16)
		if size != r.cfg.StageSizes[s] {
			return nil, binenc.ErrCorrupt
		}
		st := make([]linmod, size)
		for j := range st {
			st[j].a = rd.F64()
			st[j].b = rd.F64()
		}
		r.stages = append(r.stages, st)
	}

	// Leaves: the count must match the last stage size, except for the
	// empty-index shape (New over zero keys builds a single leaf regardless
	// of StageSizes; Lookup and Predict then short-circuit before routing).
	nLeaves := rd.Count(len(enc), 16)
	if len(keys) == 0 {
		if nLeaves < 1 {
			return nil, binenc.ErrCorrupt
		}
	} else if nLeaves != r.cfg.StageSizes[ns-1] {
		return nil, binenc.ErrCorrupt
	}
	r.leaves = make([]leaf, nLeaves)
	for i := range r.leaves {
		lf := &r.leaves[i]
		lf.m.a = rd.F64()
		lf.m.b = rd.F64()
		lf.minErr = int32(rd.Varint())
		lf.maxErr = int32(rd.Varint())
		lf.stdErr = float32(rd.F64())
		lf.n = int32(rd.Varint())
		// A retired hybrid block — 0, or 1 + its offset count, the offsets,
		// a separator count and the separators — is skipped: the leaf
		// serves through its error window, which the trainer measured for
		// B-Tree leaves too, and §3.4 expansion backs the window up.
		if nb := rd.Count(len(keys)+1, 1); nb > 0 {
			for j := 1; j < nb; j++ {
				_ = rd.Varint()
			}
			for j, nsep := 0, rd.Count(len(keys)+1, 1); j < nsep; j++ {
				_ = rd.Uvarint()
			}
		}
		if rd.Err() != nil {
			return nil, rd.Err()
		}
	}

	r.meanAbsErr = rd.F64()
	r.maxAbsErr = int(rd.Varint())
	_ = rd.Varint() // retired hybrid count slot
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	// A decoded index serves reads immediately, so rebuild the hot-path
	// state training would have produced: the per-stage routing multipliers
	// and the compiled inference plan (plan.go). This is what makes a
	// persisted index fast on first read — no retraining, no interpretation.
	r.initRouteMul()
	r.plan = r.compile()
	return r, nil
}
