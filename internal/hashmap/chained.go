// Package hashmap holds the point indexes of §4: the learned hash function
// (LearnedHash, an RMI's CDF scaled to the table size, §4.1) with its
// Figure 8 conflict measure, and the Hash-map architectures evaluated in §4
// and Appendices B–C: a separate-chaining map (Appendix B), an in-place
// two-pass chained map with 100% utilization (Appendix C), and a
// bucketized cuckoo map (Appendix C), all over the paper's 20-byte records
// (64-bit key, 64-bit payload, 32-bit meta-data field).
//
// Every map is parameterized by the hash function, so a learned CDF model
// and a Murmur-style randomized hash plug into identical architectures —
// the paper's point that "the hash-function is orthogonal to the actual
// Hash-map architecture" (§4.1). No store uses this package.
package hashmap

// HashFunc maps a key to a slot in [0, slots). Implementations include
// randomized hashing (RandomHashFunc) and learned CDF models
// (LearnedHash.Hash).
type HashFunc func(key uint64) int

// Record is the paper's 20-byte record: "a 64bit key, 64bit payload, and a
// 32bit meta-data field for delete flags, version nb, etc." (Appendix B).
type Record struct {
	Key     uint64
	Payload uint64
	Meta    uint32
}

// RecordBytes is the logical record width the paper charges (20 bytes).
const RecordBytes = 20

// chained slot states for the next field.
const (
	slotEmpty = -2 // no record in this slot
	chainEnd  = -1 // occupied, last of its chain
)

// slot is a chained-map slot: a record plus a 32-bit chain offset, "making
// it a 24Byte slot" (Appendix B).
type slot struct {
	rec  Record
	next int32
}

// slotBytes is the logical chained-map slot width the paper charges.
const slotBytes = 24

// Chained is a separate-chaining hash map where "records are stored
// directly within an array and only in the case of a conflict is the record
// attached to the linked-list" (Appendix B). Overflow records live in a
// separate array addressed by 32-bit offsets, so an unconflicted lookup is
// a single probe.
type Chained struct {
	hash     HashFunc
	slots    []slot
	overflow []slot
	n        int
}

// NewChained creates a chained map with the given number of primary slots.
func NewChained(numSlots int, hash HashFunc) *Chained {
	m := &Chained{hash: hash, slots: make([]slot, numSlots)}
	for i := range m.slots {
		m.slots[i].next = slotEmpty
	}
	return m
}

// Insert adds a record (keys are assumed unique, as in the paper's
// build-once workload).
func (m *Chained) Insert(rec Record) {
	p := m.hash(rec.Key)
	s := &m.slots[p]
	m.n++
	if s.next == slotEmpty {
		s.rec = rec
		s.next = chainEnd
		return
	}
	// Conflict: the new record chains behind the resident one, head-inserted
	// into the overflow array. The resident record keeps its one-probe hit.
	m.overflow = append(m.overflow, slot{rec: rec, next: s.next})
	s.next = int32(len(m.overflow) - 1)
}

// Lookup returns the record for key and whether it was found.
func (m *Chained) Lookup(key uint64) (Record, bool) {
	p := m.hash(key)
	s := &m.slots[p]
	if s.next == slotEmpty {
		return Record{}, false
	}
	if s.rec.Key == key {
		return s.rec, true
	}
	for idx := s.next; idx != chainEnd; {
		o := &m.overflow[idx]
		if o.rec.Key == key {
			return o.rec, true
		}
		idx = o.next
	}
	return Record{}, false
}

// Len returns the number of stored records.
func (m *Chained) Len() int { return m.n }

// NumSlots returns the primary-array capacity.
func (m *Chained) NumSlots() int { return len(m.slots) }

// EmptySlots returns the number of unused primary slots — the "wasted"
// space Figure 11 reports in GB.
func (m *Chained) EmptySlots() int {
	e := 0
	for i := range m.slots {
		if m.slots[i].next == slotEmpty {
			e++
		}
	}
	return e
}

// OverflowLen returns the number of records pushed to overflow chains.
func (m *Chained) OverflowLen() int { return len(m.overflow) }

// SizeBytes returns the total logical footprint: 24-byte slots for the
// primary array and the overflow array. Unlike the B-Tree experiments this
// includes the data itself, "to enable 1 cache-miss look-ups, the data
// itself has to be included in the Hash-map" (Appendix B).
func (m *Chained) SizeBytes() int {
	return (len(m.slots) + len(m.overflow)) * slotBytes
}

// EmptyBytes returns the bytes tied up in empty primary slots.
func (m *Chained) EmptyBytes() int { return m.EmptySlots() * slotBytes }

// Conflicts returns how many inserted records collided with an occupied
// slot (the Figure 8 metric is computed separately by core.ConflictRate;
// this reports the architecture view: overflow records).
func (m *Chained) Conflicts() int { return len(m.overflow) }
