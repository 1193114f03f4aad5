package hashmap

import (
	"testing"

	"learnedindex/internal/data"
)

func records(keys []uint64) []Record {
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i] = Record{Key: k, Payload: k * 2, Meta: uint32(i)}
	}
	return recs
}

func TestChainedInsertLookup(t *testing.T) {
	keys := data.Uniform(20_000, 1<<40, 1)
	m := NewChained(len(keys), RandomHashFunc(len(keys)))
	for _, r := range records(keys) {
		m.Insert(r)
	}
	for i, k := range keys {
		r, ok := m.Lookup(k)
		if !ok {
			t.Fatalf("missing key %d", k)
		}
		if r.Payload != k*2 || r.Meta != uint32(i) {
			t.Fatalf("wrong record for %d: %+v", k, r)
		}
	}
	for _, k := range data.SampleMissing(keys, 2000, 2) {
		if _, ok := m.Lookup(k); ok {
			t.Fatalf("phantom key %d", k)
		}
	}
}

func TestChainedAccounting(t *testing.T) {
	keys := data.Uniform(10_000, 1<<40, 1)
	m := NewChained(len(keys), RandomHashFunc(len(keys)))
	for _, r := range records(keys) {
		m.Insert(r)
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d", m.Len())
	}
	// Occupied + empty = slots; overflow = keys - occupied.
	occupied := m.NumSlots() - m.EmptySlots()
	if occupied+m.OverflowLen() != len(keys) {
		t.Fatalf("accounting broken: occupied=%d overflow=%d keys=%d", occupied, m.OverflowLen(), len(keys))
	}
	// With slots == keys and a random hash, ~36.8% of slots stay empty.
	frac := float64(m.EmptySlots()) / float64(m.NumSlots())
	if frac < 0.33 || frac < 0.30 || frac > 0.43 {
		t.Fatalf("empty fraction %.3f, want ~0.368", frac)
	}
	if m.SizeBytes() != (m.NumSlots()+m.OverflowLen())*24 {
		t.Fatal("SizeBytes formula wrong")
	}
	if m.EmptyBytes() != m.EmptySlots()*24 {
		t.Fatal("EmptyBytes formula wrong")
	}
}

func TestChainedPerfectHashNoOverflow(t *testing.T) {
	// A perfect hash (identity over dense keys) produces zero overflow.
	keys := data.Dense(5000, 0, 1)
	m := NewChained(5000, func(k uint64) int { return int(k) })
	for _, r := range records(keys) {
		m.Insert(r)
	}
	if m.OverflowLen() != 0 || m.EmptySlots() != 0 {
		t.Fatalf("perfect hash should fill exactly: overflow=%d empty=%d", m.OverflowLen(), m.EmptySlots())
	}
}

func TestChainedUndersized(t *testing.T) {
	// 75% slots (Figure 11's hardest row): must still find everything.
	keys := data.Uniform(8000, 1<<40, 3)
	m := NewChained(6000, RandomHashFunc(6000))
	for _, r := range records(keys) {
		m.Insert(r)
	}
	for _, k := range keys {
		if _, ok := m.Lookup(k); !ok {
			t.Fatalf("missing %d", k)
		}
	}
}

func TestInPlaceChained100Utilization(t *testing.T) {
	keys := data.Uniform(10_000, 1<<40, 1)
	m := BuildInPlaceChained(records(keys), len(keys), RandomHashFunc(len(keys)))
	if u := m.Utilization(); u != 1.0 {
		t.Fatalf("utilization %.3f, want 1.0", u)
	}
	if m.SizeBytes() != len(keys)*24 {
		t.Fatalf("SizeBytes = %d, want %d", m.SizeBytes(), len(keys)*24)
	}
}

func TestInPlaceChainedLookup(t *testing.T) {
	keys := data.Uniform(20_000, 1<<40, 2)
	m := BuildInPlaceChained(records(keys), len(keys), RandomHashFunc(len(keys)))
	for i, k := range keys {
		r, ok := m.Lookup(k)
		if !ok {
			t.Fatalf("missing %d", k)
		}
		if r.Meta != uint32(i) {
			t.Fatalf("wrong record for %d", k)
		}
	}
	for _, k := range data.SampleMissing(keys, 2000, 3) {
		if _, ok := m.Lookup(k); ok {
			t.Fatalf("phantom %d", k)
		}
	}
}

func TestInPlaceChainedWithClusteredHash(t *testing.T) {
	// A terrible hash (everything to slot 0) must still be correct — just a
	// long chain.
	keys := data.Dense(500, 10, 7)
	m := BuildInPlaceChained(records(keys), 500, func(uint64) int { return 0 })
	for _, k := range keys {
		if _, ok := m.Lookup(k); !ok {
			t.Fatalf("missing %d under degenerate hash", k)
		}
	}
	if _, ok := m.Lookup(11); ok {
		t.Fatal("phantom under degenerate hash")
	}
}

func TestCuckooInsertLookup(t *testing.T) {
	keys := data.Uniform(20_000, 1<<40, 1)
	c := NewAVXCuckoo(len(keys), 12)
	for _, r := range records(keys) {
		if err := c.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", r.Key, err)
		}
	}
	for i, k := range keys {
		r, ok := c.Lookup(k)
		if !ok {
			t.Fatalf("missing %d", k)
		}
		if r.Meta != uint32(i) {
			t.Fatalf("wrong record for %d", k)
		}
	}
	for _, k := range data.SampleMissing(keys, 2000, 2) {
		if _, ok := c.Lookup(k); ok {
			t.Fatalf("phantom %d", k)
		}
	}
}

func TestCuckooHighUtilization(t *testing.T) {
	keys := data.Uniform(50_000, 1<<40, 4)
	c := NewAVXCuckoo(len(keys), 12)
	for _, r := range records(keys) {
		if err := c.Insert(r); err != nil {
			t.Fatalf("AVX cuckoo should absorb ~99%% load: %v", err)
		}
	}
	if u := c.Utilization(); u < 0.95 {
		t.Fatalf("utilization %.3f, want >= 0.95", u)
	}
}

func TestCommercialCuckooDuplicates(t *testing.T) {
	c := NewCommercialCuckoo(1000, 12)
	r := Record{Key: 42, Payload: 1}
	if err := c.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(r); err != nil { // paranoid mode: dedup, no error
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate inserted twice: len=%d", c.Len())
	}
}

func TestCuckooFullErrors(t *testing.T) {
	c := NewCuckoo(8, 2, 0, 20, false)
	full := 0
	for i := uint64(1); i <= 64; i++ {
		if err := c.Insert(Record{Key: i}); err == ErrFull {
			full++
		}
	}
	if full == 0 {
		t.Fatal("overfull cuckoo never reported ErrFull")
	}
	// Everything that was accepted must still be findable.
	found := 0
	for i := uint64(1); i <= 64; i++ {
		if _, ok := c.Lookup(i); ok {
			found++
		}
	}
	if found != c.Len() {
		t.Fatalf("found %d != len %d", found, c.Len())
	}
}

func TestCuckooStash(t *testing.T) {
	c := NewCuckoo(8, 2, 16, 20, true)
	for i := uint64(1); i <= 24; i++ {
		if err := c.Insert(Record{Key: i}); err != nil {
			t.Fatalf("stash should absorb overflow: %v", err)
		}
	}
	for i := uint64(1); i <= 24; i++ {
		if _, ok := c.Lookup(i); !ok {
			t.Fatalf("missing %d (stash lookup broken?)", i)
		}
	}
}

func TestCuckooSizeCharging(t *testing.T) {
	c := NewCuckoo(1000, 4, 0, 16, false)
	if c.SizeBytes() != 1000*16 {
		t.Fatalf("SizeBytes = %d, want %d", c.SizeBytes(), 1000*16)
	}
}

func BenchmarkChainedLookup(b *testing.B) {
	keys := data.Lognormal(1_000_000, 0, 2, 1_000_000_000, 1)
	m := NewChained(len(keys), RandomHashFunc(len(keys)))
	for _, r := range records(keys) {
		m.Insert(r)
	}
	probes := data.SampleExisting(keys, 1<<16, 2)
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		r, _ := m.Lookup(probes[i&(1<<16-1)])
		s += r.Payload
	}
	sinkU = s
}

func BenchmarkCuckooLookup(b *testing.B) {
	keys := data.Lognormal(1_000_000, 0, 2, 1_000_000_000, 1)
	c := NewAVXCuckoo(len(keys), 12)
	for _, r := range records(keys) {
		if err := c.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	probes := data.SampleExisting(keys, 1<<16, 2)
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		r, _ := c.Lookup(probes[i&(1<<16-1)])
		s += r.Payload
	}
	sinkU = s
}

var sinkU uint64
