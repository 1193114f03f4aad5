package hashmap

import (
	"learnedindex/internal/core"
	"learnedindex/internal/hashfn"
)

// LearnedHash is the §4.1 Hash-Model Index: "we can scale the CDF by the
// targeted size M of the Hash-map and use h(K) = F(K) * M, with key K as
// our hash-function. If the model F perfectly learned the empirical CDF of
// the keys, no conflicts would exist."
//
// The CDF model is an RMI (the paper uses "the 2-stage RMI models from the
// previous section with 100k models on the 2nd stage and without any hidden
// layers", §4.2).
type LearnedHash struct {
	rmi   *core.RMI
	slots int
	scale float64 // slots / N
}

// NewLearnedHash trains a learned hash function over keys targeting a table
// of the given slot count. numLeaves controls the RMI's second stage; the
// paper's ratio is one leaf per ~2k keys (100k leaves for 200M keys).
func NewLearnedHash(keys []uint64, slots, numLeaves int) *LearnedHash {
	cfg := core.DefaultConfig(numLeaves)
	r := core.New(keys, cfg)
	return &LearnedHash{rmi: r, slots: slots, scale: float64(slots) / float64(len(keys))}
}

// NewLearnedHashFromRMI reuses an existing trained RMI as the CDF model.
func NewLearnedHashFromRMI(r *core.RMI, slots int) *LearnedHash {
	return &LearnedHash{rmi: r, slots: slots, scale: float64(slots) / float64(len(r.Keys()))}
}

// Hash maps key to a slot in [0, slots): ⌊F(key)·M⌋ with clamping.
func (h *LearnedHash) Hash(key uint64) int {
	pos, _, _ := h.rmi.Predict(key)
	s := int(float64(pos) * h.scale)
	if s < 0 {
		return 0
	}
	if s >= h.slots {
		return h.slots - 1
	}
	return s
}

// Slots returns the target table size.
func (h *LearnedHash) Slots() int { return h.slots }

// SizeBytes returns the model footprint.
func (h *LearnedHash) SizeBytes() int { return h.rmi.SizeBytes() }

// RandomHashFunc returns the baseline: a MurmurHash3-style randomized hash
// reduced to [0, slots).
func RandomHashFunc(slots int) func(uint64) int {
	return func(key uint64) int {
		return hashfn.Reduce(hashfn.Mix64(key), slots)
	}
}

// ConflictStats describes hash-table slot occupancy for a key set under a
// hash function — the Figure 8 metric.
type ConflictStats struct {
	Keys      int
	Slots     int
	Occupied  int // slots holding at least one key
	Conflicts int // keys that landed on an already-occupied slot
	MaxChain  int // largest number of keys sharing one slot
	Empty     int // unused slots
}

// ConflictRate is Conflicts / Keys, the percentage Figure 8 reports.
func (s ConflictStats) ConflictRate() float64 {
	if s.Keys == 0 {
		return 0
	}
	return float64(s.Conflicts) / float64(s.Keys)
}

// MeasureConflicts fills a virtual table of the given slot count with every
// key and reports occupancy statistics.
func MeasureConflicts(keys []uint64, slots int, hash func(uint64) int) ConflictStats {
	counts := make([]int32, slots)
	st := ConflictStats{Keys: len(keys), Slots: slots}
	for _, k := range keys {
		counts[hash(k)]++
	}
	for _, c := range counts {
		switch {
		case c == 0:
			st.Empty++
		default:
			st.Occupied++
			st.Conflicts += int(c) - 1
			if int(c) > st.MaxChain {
				st.MaxChain = int(c)
			}
		}
	}
	return st
}
