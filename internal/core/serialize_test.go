package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"learnedindex/internal/binenc"
	"learnedindex/internal/data"
)

// goldenRMIHash pins the serialized byte layout of the fixed-seed,
// linear-top RMI below. Any format drift — field order, varint vs fixed,
// new fields — breaks this hash; an intentional change must bump
// rmiFormatVersion (and the storage segment magic) along with it.
const goldenRMIHash = "c2deacc04a175964665b18799c9681e76aeeb778a0a6f56b325635ff380c5be4"

// roundTrip encodes r, decodes it against the same keys, and fails the
// test on any error.
func roundTrip(t *testing.T, r *RMI) *RMI {
	t.Helper()
	enc, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeRMI(enc, r.Keys())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dec
}

// assertIdentical checks that two RMIs answer identically on members,
// misses, and raw predictions.
func assertIdentical(t *testing.T, name string, r, dec *RMI, probes []uint64) {
	t.Helper()
	if !reflect.DeepEqual(r.Config(), dec.Config()) {
		t.Fatalf("%s: config drifted: %+v vs %+v", name, r.Config(), dec.Config())
	}
	if r.SizeBytes() != dec.SizeBytes() || r.NumLeaves() != dec.NumLeaves() {
		t.Fatalf("%s: shape drifted", name)
	}
	if r.MeanAbsErr() != dec.MeanAbsErr() || r.MaxAbsErr() != dec.MaxAbsErr() {
		t.Fatalf("%s: error stats drifted", name)
	}
	for _, k := range probes {
		if a, b := r.Lookup(k), dec.Lookup(k); a != b {
			t.Fatalf("%s: Lookup(%d) = %d, decoded %d", name, k, a, b)
		}
		p1, lo1, hi1 := r.Predict(k)
		p2, lo2, hi2 := dec.Predict(k)
		if p1 != p2 || lo1 != lo2 || hi1 != hi2 {
			t.Fatalf("%s: Predict(%d) diverged: (%d,%d,%d) vs (%d,%d,%d)", name, k, p1, lo1, hi1, p2, lo2, hi2)
		}
	}
}

func TestRMISerializeRoundTrip(t *testing.T) {
	keys := data.LognormalPaper(40_000, 11)
	rng := rand.New(rand.NewSource(13))
	probes := append(data.SampleExisting(keys, 2000, 14), data.SampleMissing(keys, 2000, 15)...)
	probes = append(probes, 0, 1, keys[0], keys[len(keys)-1], keys[len(keys)-1]+1, ^uint64(0))
	for i := 0; i < 100; i++ {
		probes = append(probes, rng.Uint64())
	}

	cases := map[string]Config{
		"linear-default": DefaultConfig(400),
		"multivariate":   {Top: TopMultivariate, StageSizes: []int{200}, Seed: 1},
		"nn-top":         {Top: TopNN, Hidden: []int{8}, StageSizes: []int{100}, Seed: 1, SubsampleTop: 20_000},
		"multi-stage":    {Top: TopLinear, StageSizes: []int{8, 64, 400}, Seed: 1},
	}
	for name, cfg := range cases {
		r := New(keys, cfg)
		assertIdentical(t, name, r, roundTrip(t, r), probes)
	}

	// Empty index: New(nil) has a degenerate one-leaf shape, and under the
	// zero Config it records an inner stage it never trains.
	for _, cfg := range []Config{{}, DefaultConfig(16)} {
		empty := New(nil, cfg)
		dec := roundTrip(t, empty)
		if dec.Lookup(42) != 0 || len(dec.Keys()) != 0 {
			t.Fatalf("empty index under %+v did not round-trip", cfg)
		}
		assertIdentical(t, "empty", empty, dec, []uint64{0, 42, ^uint64(0)})
	}
}

// TestRMIRetiredSearchSlotDecodes pins compatibility with encodings that
// stored a per-index search strategy: the slot right after the stage sizes
// decodes whatever it holds, to the same index as slot 0.
func TestRMIRetiredSearchSlotDecodes(t *testing.T) {
	keys := data.LognormalPaper(20_000, 5)
	cfg := Config{Top: TopLinear, StageSizes: []int{8, 200}, Seed: 1}
	r := New(keys, cfg)
	enc, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The header up to the slot: version, key count, top kind, hidden
	// widths, stage sizes.
	hdr := binenc.AppendUvarint(nil, rmiFormatVersion)
	hdr = binenc.AppendUvarint(hdr, uint64(len(keys)))
	hdr = binenc.AppendUvarint(hdr, uint64(cfg.Top))
	hdr = binenc.AppendUvarint(hdr, 0)
	hdr = binenc.AppendUvarint(hdr, uint64(len(cfg.StageSizes)))
	for _, s := range cfg.StageSizes {
		hdr = binenc.AppendUvarint(hdr, uint64(s))
	}
	slot := len(hdr)
	if !bytes.Equal(enc[:slot], hdr) || enc[slot] != 0 {
		t.Fatalf("encoding does not start with the expected header and a zero search slot")
	}
	probes := append(data.SampleExisting(keys, 1000, 6), data.SampleMissing(keys, 1000, 7)...)
	probes = append(probes, 0, ^uint64(0))
	base := roundTrip(t, r)
	for _, v := range []byte{1, 2, 3} {
		old := bytes.Clone(enc)
		old[slot] = v
		dec, err := DecodeRMI(old, keys)
		if err != nil {
			t.Fatalf("search slot %d: %v", v, err)
		}
		assertIdentical(t, fmt.Sprintf("search slot %d", v), base, dec, probes)
	}
}

// TestRMIRetiredHybridBlocksDecode pins compatibility with encodings that
// carry uint64 B-Tree leaves: testdata/parent-hybrid.rmi (README.md there
// has its generator) has every one of its 60 leaves replaced. Its blocks
// are skipped, every leaf serves through its stored error window, and
// every answer, scalar and batched, is still the lower bound.
func TestRMIRetiredHybridBlocksDecode(t *testing.T) {
	enc, err := os.ReadFile(filepath.Join("testdata", "parent-hybrid.rmi"))
	if err != nil {
		t.Fatal(err)
	}
	keys := data.Weblogs(20_000, 1)
	r, err := DecodeRMI(enc, keys)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	probes := append(data.SampleExisting(keys, 5000, 2), data.SampleMissing(keys, 5000, 3)...)
	probes = append(probes, 0, ^uint64(0))
	out := make([]int, len(probes))
	r.Plan().LookupBatch(probes, out)
	for i, k := range probes {
		want := oracle(keys, k)
		if got := r.Lookup(k); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", k, got, want)
		}
		if out[i] != want {
			t.Fatalf("LookupBatch[%d] (key %d) = %d, want %d", i, k, out[i], want)
		}
	}
	assertRejectsCorrupt(t, enc, keys, 2000)
}

func TestRMIGoldenFormat(t *testing.T) {
	keys := data.Dense(10_000, 1_000, 7) // fully deterministic key set
	r := New(keys, DefaultConfig(64))
	enc, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); got != goldenRMIHash {
		t.Fatalf("RMI serialization format drifted:\n got %s\nwant %s\n"+
			"(an intentional change must bump rmiFormatVersion and this hash)", got, goldenRMIHash)
	}
}

func TestRMIDecodeRejectsCorrupt(t *testing.T) {
	keys := data.Dense(5_000, 10, 3)
	r := New(keys, Config{Top: TopLinear, StageSizes: []int{4, 50}, Seed: 1})
	enc, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := DecodeRMI(enc, keys[:100]); err == nil {
		t.Error("decode against wrong key count succeeded")
	}
	assertRejectsCorrupt(t, enc, keys, 500)
}

// assertRejectsCorrupt checks that truncations of enc fail to decode
// against keys, and that flips seeded bit flips either fail decode or at
// minimum never panic on decode+lookup (structural invariants are
// validated; model floats are free to change predictions).
func assertRejectsCorrupt(t *testing.T, enc []byte, keys []uint64, flips int) {
	t.Helper()
	for _, trunc := range []int{0, 1, 3, len(enc) / 4, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeRMI(enc[:trunc], keys); err == nil {
			t.Errorf("truncation at %d decoded without error", trunc)
		}
	}
	rng := rand.New(rand.NewSource(99))
	probes := []uint64{0, keys[17], keys[len(keys)-1], ^uint64(0)}
	out := make([]int, len(probes))
	for i := 0; i < flips; i++ {
		bad := append([]byte(nil), enc...)
		bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		dec, err := DecodeRMI(bad, keys)
		if err != nil {
			continue
		}
		for _, k := range probes {
			_ = dec.Lookup(k) // must not panic
		}
		dec.Plan().LookupBatch(probes, out)
	}
}
