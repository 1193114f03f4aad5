package serve

import (
	"flag"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

const benchN = 1 << 20

var (
	bKeys   data.Keys
	bProbes []uint64
	bRMI    *core.RMI
	bStore  *Store
)

func benchSetup() {
	if bKeys != nil {
		return
	}
	bKeys = data.Maps(benchN, 1)
	bProbes = data.SampleExisting(bKeys, 1<<16, 2)
	bRMI = core.New(bKeys, core.DefaultConfig(len(bKeys)/2000))
	bStore = New(bKeys, core.Config{}, Options{})
}

// BenchmarkPerKeyLookup is the single-threaded baseline: per-key RMI
// lookups over an unsorted probe stream.
func BenchmarkPerKeyLookup(b *testing.B) {
	benchSetup()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += bRMI.Lookup(bProbes[i&(1<<16-1)])
	}
	_ = sink
}

// BenchmarkRMIBatchSorted: the one-plan batch kernel alone on a
// pre-sorted batch (no segment fences, no sort, no result mapping).
func BenchmarkRMIBatchSorted(b *testing.B) {
	benchSetup()
	sorted := append([]uint64(nil), bProbes[:512]...)
	slices.Sort(sorted)
	out := make([]int, len(sorted))
	p := bRMI.Plan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.LookupBatch(sorted, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sorted)), "ns/key")
}

// BenchmarkStoreLookupBatch: the full serving path — segment-list capture,
// fences, batch resolve — over a rotating probe stream (a fresh 512-probe
// window every call, so the key array is probed at genuinely new
// positions).
func BenchmarkStoreLookupBatch(b *testing.B) {
	benchSetup()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i += 512 {
		off := (n * 512) & (1<<16 - 1)
		n++
		bStore.LookupBatch(bProbes[off : off+512])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/key")
}

// BenchmarkStoreLookupBatchParallel: the same path fanned across
// GOMAXPROCS goroutines — reads are lock-free, so throughput scales with
// cores (on a single-core box this only measures scheduling overhead).
func BenchmarkStoreLookupBatchParallel(b *testing.B) {
	benchSetup()
	var cursor atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			off := int(cursor.Add(512)) & (1<<16 - 1)
			bStore.LookupBatch(bProbes[off : off+512])
		}
	})
}

// uniformKeys sizes BenchmarkStoreLookupBatchUniform. The default fits CI;
// -serve.uniformkeys=8000000 is the shape of the repo benchmark's mem-read
// workload, where the key array is far larger than cache and every probe
// misses.
var uniformKeys = flag.Int("serve.uniformkeys", 1<<20, "key count of BenchmarkStoreLookupBatchUniform")

// BenchmarkStoreLookupBatchUniform is the batch kernel's local loop: σ=2
// lognormal keys behind package-default options, uniform stored probes in
// 64-key batches, a fresh batch every call so no probe finds its lines
// warm. Not a gate — bash benchmark/run.sh is the measurement.
func BenchmarkStoreLookupBatchUniform(b *testing.B) {
	keys := data.Lognormal(*uniformKeys, 0, 2, 1<<58, 1)
	st := New(keys, core.Config{}, Options{})
	defer st.Close()
	probes := data.SampleExisting(keys, 1<<20, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 64) & (1<<20 - 1)
		st.LookupBatch(probes[off : off+64])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/key")
}

// BenchmarkStoreLookupBatchStringPersistent is the string rank kernel's
// local loop, the shape of the repo benchmark's cluster-mixed-str nodes:
// DocID keys on a persistent store in a few flushed segments that all span
// the key range, stored probes in 64-key batches, a fresh batch every
// call. Not a gate — bash benchmark/run.sh is the measurement.
func BenchmarkStoreLookupBatchStringPersistent(b *testing.B) {
	keys := []string(data.DocIDs(200_000, 1))
	rng := rand.New(rand.NewSource(2))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	st, err := OpenString(keys[:170_000], core.Config{}, Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for _, part := range [][]string{keys[170_000:190_000], keys[190_000:198_000], keys[198_000:]} {
		for _, k := range part {
			st.InsertString(k)
		}
		st.Flush()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 64) % (len(keys) - 64)
		st.LookupBatchString(keys[off : off+64])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/key")
}
