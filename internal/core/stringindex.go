package core

import "learnedindex/internal/keycodec"

// StringIndex is the string-keyed read path built on the key codec
// (internal/keycodec): a compiled uint64 RMI plan over the sorted
// deduplicated 8-byte prefixes, plus the suffix dictionary for exact
// disambiguation. It holds no string — the keys live in the dictionary's
// pointer-free block — so an index trained in memory, one decoded from a
// segment file and one replayed on a follower are the same structure.
//
// A lookup is a two-level descent:
//
//  1. the probe's prefix runs through the uint64 plan, yielding the prefix
//     rank pi (lower bound over the deduped prefix array);
//  2. the dictionary turns pi into the exact answer (keycodec.Dict.Find): a
//     prefix miss maps straight to Start(pi) (every key in earlier groups
//     is < probe, every key from Start(pi) on is > probe); a prefix hit
//     narrows to the group [Start(pi), Start(pi+1)) of keys sharing the
//     prefix, where the probe's tail is compared against the contiguous
//     suffix bytes — one compare for the common singleton group, a binary
//     search over however many keys share the prefix otherwise.
//
// The result is a true lower bound over the exact keys in bytes order, with
// the same semantics as RMI.Lookup over uint64 keys.
type StringIndex struct {
	dict *keycodec.Dict
	rmi  *RMI
	plan *Plan
}

// NewStringIndex builds a StringIndex over sorted unique keys. The key
// bytes are copied into the index; keys is not retained. It panics on a
// key set too large for one dictionary (keycodec.BuildDict).
func NewStringIndex(keys []string, cfg Config) *StringIndex {
	prefixes, dict, err := keycodec.BuildDict(keys)
	if err != nil {
		panic("core: " + err.Error())
	}
	return AssembleStringIndex(New(prefixes, cfg), dict)
}

// AssembleStringIndex wires a StringIndex from a prefix RMI and the
// dictionary over the same prefixes: the segment-open path, which
// deserializes models and never trains one, and the tail of every build.
func AssembleStringIndex(rmi *RMI, dict *keycodec.Dict) *StringIndex {
	return &StringIndex{dict: dict, rmi: rmi, plan: rmi.Plan()}
}

// Lookup returns the lower-bound position of key over the exact string
// keys: the index of the first key >= key in bytes order.
func (si *StringIndex) Lookup(key string) int {
	p := keycodec.Prefix(key)
	pos, _ := si.dict.Find(key, p, si.plan.Lookup(p))
	return pos
}

// stackIndexes is how many indexes FindBatchStrings gathers prefix plans
// for on its own stack; a larger index set allocates the plan list.
const stackIndexes = 16

// FindBatchStrings is the batch kernel for string keys: out[i] =
// indexes[sel[i]].Lookup(probes[i]) for every probe, in probe order, with
// bit-identical results, and, when found is non-nil (len(found) ==
// len(probes)), whether indexes[sel[i]] stores probes[i]: the equality the
// collision-group search decides on its way to the position, so membership
// costs no second key comparison. len(sel) and len(out) must equal
// len(probes); a nil sel sends every probe to indexes[0]. Each probe is
// reduced to its prefix once, a tile's prefixes run the uint64 kernel
// together over the indexes' prefix plans — so the prefix arrays' misses
// overlap whichever index each probe lives in — and then each probe
// resolves inside its collision group exactly as Lookup does.
func FindBatchStrings(indexes []*StringIndex, sel []int32, probes []string, out []int, found []bool) {
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
			var hit bool
			pos[i], hit = indexes[ts[i]].dict.Find(k, pfx[i], pos[i])
			if found != nil {
				found[start+i] = hit
			}
		}
	}
}

// Contains reports whether key is stored.
func (si *StringIndex) Contains(key string) bool {
	p := keycodec.Prefix(key)
	_, found := si.dict.Find(key, p, si.plan.Lookup(p))
	return found
}

// RangeScan returns the position range [start, end) of stored keys in
// [loKey, hiKey) — two lookups, mirroring Plan.RangeScan: each endpoint is
// its own lower bound, so an inverted range gives end < start.
func (si *StringIndex) RangeScan(loKey, hiKey string) (start, end int) {
	return si.Lookup(loKey), si.Lookup(hiKey)
}

// Len returns the number of stored keys.
func (si *StringIndex) Len() int { return si.dict.Len() }

// Prefixes returns the sorted deduplicated prefix array. Shared, read-only.
func (si *StringIndex) Prefixes() []uint64 { return si.rmi.Keys() }

// Dict returns the suffix dictionary, which holds the keys.
func (si *StringIndex) Dict() *keycodec.Dict { return si.dict }

// RMI returns the prefix-level RMI (for serialization).
func (si *StringIndex) RMI() *RMI { return si.rmi }

// Plan returns the live compiled prefix plan — the one Lookup runs, so its
// sampled model-health histograms reflect real traffic. (RMI().Plan()
// would compile a fresh plan with empty observations.)
func (si *StringIndex) Plan() *Plan { return si.plan }

// stringPage bounds how many keys a StringCursor materializes at a time.
// Pages start small — most of a merge's cursors are left after a few keys —
// and double while the scan keeps reading from the same index.
const (
	stringPageMin = 16
	stringPageMax = 256
)

// StringCursor streams a StringIndex's keys in order for the scan
// subsystem (it satisfies internal/scan.Cursor[string]). Seek enters at the
// index's own lower bound; keys are materialized out of the dictionary a
// page at a time, one allocation per page, so a scan that stops early never
// pays for the keys it did not reach. The zero value is unusable; call
// Reset first.
type StringCursor struct {
	si   *StringIndex
	page []string // keys [base, base+len(page))
	base int
	i    int // current key, as an index into page
	size int // next page's length
}

// Reset points the cursor at an index.
func (c *StringCursor) Reset(si *StringIndex) {
	c.si, c.page, c.base, c.i, c.size = si, c.page[:0], 0, 0, stringPageMin
}

// load materializes the page that starts at key index at.
func (c *StringCursor) load(at int) bool {
	clear(c.page)
	end := min(at+c.size, c.si.Len())
	c.page, c.base, c.i = c.si.dict.AppendKeys(c.page[:0], at, end), at, 0
	c.size = min(2*c.size, stringPageMax)
	return at < end
}

// Seek positions at the first key >= key.
func (c *StringCursor) Seek(key string) bool {
	pos := c.si.Lookup(key)
	if pos >= c.base && pos < c.base+len(c.page) {
		c.i = pos - c.base
		return true
	}
	return c.load(pos)
}

// Next advances to the following key.
func (c *StringCursor) Next() bool {
	c.i++
	return c.i < len(c.page) || c.load(c.base+len(c.page))
}

// Key returns the current key.
func (c *StringCursor) Key() string { return c.page[c.i] }

// Release drops the index and the page's strings, keeping the page's
// capacity for the next scan.
func (c *StringCursor) Release() {
	clear(c.page)
	c.si, c.page = nil, c.page[:0]
}
