package bloom

import (
	"fmt"
	"math"
	"testing"

	"learnedindex/internal/data"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(10_000, 0.01)
	keys := make([]string, 10_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestFPRNearTarget(t *testing.T) {
	for _, target := range []float64{0.1, 0.01, 0.001} {
		f := New(20_000, target)
		for i := 0; i < 20_000; i++ {
			f.Add(fmt.Sprintf("member-%d", i))
		}
		fp := 0
		const trials = 100_000
		for i := 0; i < trials; i++ {
			if f.MayContain(fmt.Sprintf("nonmember-%d", i)) {
				fp++
			}
		}
		got := float64(fp) / trials
		if got > target*2.0 {
			t.Fatalf("target FPR %.4f: measured %.4f (too high)", target, got)
		}
	}
}

func TestOptimalM(t *testing.T) {
	// Paper arithmetic: 1B records at 1% FPR ≈ 1.76 GB; at 0.01% ≈ 2.23GB...
	// (§5: the 0.01% figure in the text is a typo'd 0.1%; verify the 1%
	// case which is unambiguous).
	m := OptimalM(1_000_000_000, 0.01)
	gb := float64(m) / 8 / (1 << 30)
	if gb < 1.0 || gb > 1.3 {
		t.Fatalf("1B @ 1%% = %.2f GB of bits, want ~1.12 (the paper's 1.76GB uses a larger per-key budget)", gb)
	}
	// Monotonicity: lower FPR needs more bits.
	if OptimalM(1000, 0.001) <= OptimalM(1000, 0.01) {
		t.Fatal("m should grow as p shrinks")
	}
	if OptimalM(2000, 0.01) <= OptimalM(1000, 0.01) {
		t.Fatal("m should grow with n")
	}
}

func TestOptimalK(t *testing.T) {
	// k = (m/n) ln2; for m/n = 10 bits/key, k ≈ 7.
	if k := OptimalK(10_000, 1000); k != 7 {
		t.Fatalf("k = %d, want 7", k)
	}
	if k := OptimalK(64, 1_000_000); k != 1 {
		t.Fatalf("k floor = %d, want 1", k)
	}
}

func TestUint64Keys(t *testing.T) {
	keys := data.Lognormal(5000, 0, 2, 1_000_000_000, 1)
	f := New(len(keys), 0.01)
	for _, k := range keys {
		f.AddUint64(k)
	}
	for _, k := range keys {
		if !f.MayContainUint64(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
	fp := 0
	missing := data.SampleMissing(keys, 20_000, 2)
	for _, k := range missing {
		if f.MayContainUint64(k) {
			fp++
		}
	}
	if rate := float64(fp) / float64(len(missing)); rate > 0.03 {
		t.Fatalf("uint64 FPR %.4f too high", rate)
	}
}

func TestEstimatedFPR(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	est := f.EstimatedFPR()
	if math.Abs(est-0.01) > 0.005 {
		t.Fatalf("estimated FPR %.4f far from design target 0.01", est)
	}
}

func TestSizeBytes(t *testing.T) {
	f := NewWithSize(1<<20, 7)
	if f.SizeBytes() != (1<<20)/8 {
		t.Fatalf("SizeBytes = %d, want %d", f.SizeBytes(), (1<<20)/8)
	}
	if f.Bits() != 1<<20 || f.K() != 7 {
		t.Fatal("accessors wrong")
	}
}

func TestDegenerateParams(t *testing.T) {
	// Constructors must clamp rather than panic.
	New(0, 0.01).Add("x")
	New(10, 0).Add("x")
	New(10, 1.5).Add("x")
	NewWithSize(0, 0).Add("x")
}

func BenchmarkAdd(b *testing.B) {
	f := New(1_000_000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddUint64(uint64(i))
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := New(1_000_000, 0.01)
	for i := 0; i < 1_000_000; i++ {
		f.AddUint64(uint64(i) * 3)
	}
	b.ResetTimer()
	var s int
	for i := 0; i < b.N; i++ {
		if f.MayContainUint64(uint64(i)) {
			s++
		}
	}
	sink = s
}

var sink int
