package core

import (
	"learnedindex/internal/keycodec"
	"learnedindex/internal/search"
)

// StringIndex is the string-keyed read path built on the key codec
// (internal/keycodec): a compiled uint64 RMI plan over the sorted
// deduplicated 8-byte prefixes, plus the suffix dictionary for exact
// disambiguation, plus — when the key set is collision-heavy — a StringRMI
// trained over the exact keys as the last-mile tie-break model.
//
// A lookup is a two-level descent:
//
//  1. the probe's prefix runs through the uint64 plan, yielding the prefix
//     rank pi (lower bound over the deduped prefix array);
//  2. the dictionary's collision directory converts pi to a string range:
//     a prefix miss maps straight to Start(pi) (every key in earlier groups
//     is < probe, every key from Start(pi) on is > probe); a prefix hit
//     narrows to the group [Start(pi), Start(pi+1)) of keys sharing the
//     prefix, where the tie-break resolves the exact lower bound — a single
//     compare for the common singleton group, stringsearch's bounded binary
//     for small groups, or the StringRMI (clamped into the group) when one
//     was trained.
//
// The result is a true lower bound over the exact keys in bytes order, with
// the same semantics as RMI.Lookup over uint64 keys.
type StringIndex struct {
	prefixes []uint64
	dict     *keycodec.Dict
	rmi      *RMI
	plan     *Plan
	srmi     *StringRMI // nil unless the key set is collision-heavy
}

// Collision-heaviness thresholds: a StringRMI tie-break model is worth its
// training time only when binary search inside collision groups would be a
// real cost — a huge group (URL corpora sharing "http://…" heads) or a
// large collided fraction.
const (
	srmiMaxGroup      = 64 // largest group a bounded binary search absorbs
	srmiCollideFrac   = 8  // train srmi when collisions > len/srmiCollideFrac
	srmiMinCollisions = 4096
)

// NewStringIndex builds a StringIndex over sorted unique keys.
func NewStringIndex(keys []string, cfg Config) *StringIndex {
	return NewStringIndexWorkers(keys, cfg, trainingWorkers(len(keys)))
}

// NewStringIndexWorkers builds like NewStringIndex with an explicit
// stage-training worker count for the prefix RMI (1 = sequential;
// serialized results are bit-identical for every count).
func NewStringIndexWorkers(keys []string, cfg Config, workers int) *StringIndex {
	prefixes, dict := keycodec.BuildDict(keys)
	si := &StringIndex{
		prefixes: prefixes,
		dict:     dict,
		rmi:      NewWithTrainWorkers(prefixes, cfg, workers),
	}
	si.plan = si.rmi.Plan()
	if nc := dict.NumCollisions(); dict.MaxGroup() > srmiMaxGroup ||
		(nc >= srmiMinCollisions && nc > len(keys)/srmiCollideFrac) {
		scfg := DefaultStringConfig(defaultLeafCount(len(keys)))
		scfg.Seed = cfg.Seed
		si.srmi = NewString(keys, scfg)
	}
	return si
}

// AssembleStringIndex wires a StringIndex from an already-decoded prefix
// RMI and dictionary (the segment-open path). It never trains anything —
// cold-opening a persistent store deserializes models, it does not retrain
// — so the tie-break inside collision groups is always the bounded binary
// search here; the prefix plan still does all the positioning work.
func AssembleStringIndex(rmi *RMI, dict *keycodec.Dict) *StringIndex {
	return &StringIndex{prefixes: rmi.Keys(), dict: dict, rmi: rmi, plan: rmi.Plan()}
}

// Lookup returns the lower-bound position of key over the exact string
// keys: the index of the first key >= key in bytes order.
func (si *StringIndex) Lookup(key string) int {
	p := keycodec.Prefix(key)
	return si.resolve(key, p, si.plan.Lookup(p))
}

// resolve is the second level of the descent, shared by Lookup and the
// batch kernel: it turns pi, the rank of key's prefix p over the deduped
// prefix array, into key's exact lower bound.
func (si *StringIndex) resolve(key string, p uint64, pi int) int {
	if pi >= len(si.prefixes) || si.prefixes[pi] != p {
		// Prefix miss: the rank bridge is exact.
		return si.dict.Start(pi)
	}
	s, e := si.dict.Group(pi)
	if e-s == 1 {
		// Singleton group: one compare resolves the tie.
		if si.dict.Strings()[s] < key {
			return s + 1
		}
		return s
	}
	if si.srmi != nil {
		pos := si.srmi.Lookup(key)
		// The model answers over the full key array; a correct lower bound
		// for a key with this prefix always lands inside [s, e] — clamp
		// defensively so a model bug can't leak an out-of-group position.
		if pos < s {
			pos = s
		}
		if pos > e {
			pos = e
		}
		return pos
	}
	return search.StringBinary(si.dict.Strings(), key, s, e)
}

// stackIndexes is how many indexes LookupBatchStrings gathers prefix plans
// for on its own stack; a larger index set allocates the plan list.
const stackIndexes = 16

// LookupBatchStrings is the batch kernel for string keys: out[i] =
// indexes[sel[i]].Lookup(probes[i]) for every probe, in probe order, with
// bit-identical results. len(sel) and len(out) must equal len(probes); a nil
// sel sends every probe to indexes[0]. Each probe is reduced to its prefix
// once, a tile's prefixes run the uint64 kernel together over the indexes'
// prefix plans — so the prefix arrays' misses overlap whichever index each
// probe lives in — and then each probe resolves inside its collision group
// exactly as Lookup does.
func LookupBatchStrings(indexes []*StringIndex, sel []int32, probes []string, out []int) {
	var pbuf [stackIndexes]*Plan
	plans := pbuf[:0]
	for _, si := range indexes {
		plans = append(plans, si.plan)
	}
	var pfx [batchTile]uint64
	for start := 0; start < len(probes); start += batchTile {
		end := min(start+batchTile, len(probes))
		ts, tile, pos := tileSel(sel, start, end), probes[start:end], out[start:end]
		for i, k := range tile {
			pfx[i] = keycodec.Prefix(k)
		}
		lookupTile(plans, ts, pfx[:len(tile)], pos)
		for i, k := range tile {
			pos[i] = indexes[ts[i]].resolve(k, pfx[i], pos[i])
		}
	}
}

// Contains reports whether key is stored.
func (si *StringIndex) Contains(key string) bool {
	pos := si.Lookup(key)
	strs := si.dict.Strings()
	return pos < len(strs) && strs[pos] == key
}

// RangeScan returns the position range [start, end) of stored keys in
// [loKey, hiKey) — two lookups, mirroring Plan.RangeScan.
func (si *StringIndex) RangeScan(loKey, hiKey string) (start, end int) {
	start = si.Lookup(loKey)
	if hiKey <= loKey {
		return start, start
	}
	return start, si.Lookup(hiKey)
}

// Len returns the number of stored keys.
func (si *StringIndex) Len() int { return si.dict.Len() }

// Strings returns the sorted stored keys. Shared, read-only.
func (si *StringIndex) Strings() []string { return si.dict.Strings() }

// Prefixes returns the sorted deduplicated prefix array. Shared, read-only.
func (si *StringIndex) Prefixes() []uint64 { return si.prefixes }

// Dict returns the suffix dictionary.
func (si *StringIndex) Dict() *keycodec.Dict { return si.dict }

// RMI returns the prefix-level RMI (for serialization).
func (si *StringIndex) RMI() *RMI { return si.rmi }

// Plan returns the live compiled prefix plan — the one Lookup runs, so its
// sampled model-health histograms reflect real traffic. (RMI().Plan()
// would compile a fresh plan with empty observations.)
func (si *StringIndex) Plan() *Plan { return si.plan }

// HasTieBreakModel reports whether a StringRMI tie-break model was trained.
func (si *StringIndex) HasTieBreakModel() bool { return si.srmi != nil }
