package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	sp := findSpec("disk-mixed")
	gen := func(seed uint64) ([]uint64, []op[uint64]) {
		pre := uintKeys.preload(newRNG(seed, "keys"), 5000)
		return pre, newWorkers(sp, uintKeys, pre, seed)[1].ops
	}
	preA, opsA := gen(7)
	preB, opsB := gen(7)
	preC, _ := gen(8)
	if !slices.Equal(preA, preB) {
		t.Fatal("same seed, different preloaded keys")
	}
	if slices.Equal(preA, preC) {
		t.Fatal("different seeds, same preloaded keys")
	}
	for i := range opsA {
		if opsA[i].kind != opsB[i].kind || !slices.Equal(opsA[i].keys, opsB[i].keys) || !slices.Equal(opsA[i].pos, opsB[i].pos) {
			t.Fatalf("same seed, different op %d", i)
		}
	}
	if len(preA) != 5000 || !slices.IsSorted(preA) || len(slices.Compact(slices.Clone(preA))) != 5000 {
		t.Fatal("preloaded keys are not 5000 distinct sorted keys")
	}
	for _, k := range preA {
		if uintKeys.class(k) != classPre {
			t.Fatalf("preloaded key %d has class %d", k, uintKeys.class(k))
		}
	}
	strs := stringKeys.preload(newRNG(7, "keys"), 2000)
	if !slices.Equal(strs, stringKeys.preload(newRNG(7, "keys"), 2000)) || !slices.IsSorted(strs) {
		t.Fatal("string keys are not deterministic and sorted")
	}
	if k := docIDKey(newRNG(1, "x"), classMiss); stringKeys.class(k) != classMiss {
		t.Fatalf("class tag of %q", k)
	}
}

func TestOpMixAndReferencePositions(t *testing.T) {
	sp := findSpec("disk-mixed")
	pre := uintKeys.preload(newRNG(3, "keys"), 5000)
	var n [numOpKinds]int
	for _, o := range newWorkers(sp, uintKeys, pre, 3)[0].ops {
		n[o.kind]++
		for j, k := range o.keys {
			if int(o.pos[j]) != lowerBound(pre, k) {
				t.Fatalf("%s key %d: reference position %d, lower bound %d", opNames[o.kind], k, o.pos[j], lowerBound(pre, k))
			}
		}
	}
	for k, share := range sp.mix {
		if got := float64(n[k]) / float64(cycleOps); math.Abs(got-share) > 0.03 {
			t.Errorf("%s: share %.3f, want %.2f", opNames[k], got, share)
		}
	}
}

func TestZipfFavoursFewKeys(t *testing.T) {
	r := newRNG(1, "z")
	z := newZipf(r, 100_000, 1.2)
	hits := map[int]int{}
	for i := 0; i < 100_000; i++ {
		hits[z.index(r)]++
	}
	if len(hits) > 40_000 {
		t.Fatalf("%d distinct keys in 100000 draws: not skewed", len(hits))
	}
}

func TestQuantilesAndSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := quantileOf(xs, 1); got != 5 {
		t.Fatalf("max = %v", got)
	}
	if got := quantileOf([]float64{0, 10}, 0.25); got != 2.5 {
		t.Fatalf("interpolated quantile = %v", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("spread = %v", got)
	}
}

func TestCrashCopyKeepsOnlyWhatWasSynced(t *testing.T) {
	dir, crash := filepath.Join(t.TempDir(), "live"), filepath.Join(t.TempDir(), "crash")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fs := newCountFS(osFS)
	write := func(name, data string, sync bool) fsFile {
		f, err := fs.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	wal := write("wal-1.log", "durable", true)
	if _, err := wal.Write([]byte("+torn")); err != nil { // written after the fsync
		t.Fatal(err)
	}
	write("seg-1.seg.tmp", "segment", true)
	if err := fs.Rename(filepath.Join(dir, "seg-1.seg.tmp"), filepath.Join(dir, "seg-1.seg")); err != nil {
		t.Fatal(err)
	}
	write("seg-2.seg.tmp", "never synced", false)
	write("old.log", "removed", true)
	if err := fs.Remove(filepath.Join(dir, "old.log")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(crash, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crash, "stale"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := fs.crashCopy(dir, crash); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	entries, err := os.ReadDir(crash)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(crash, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = string(b)
	}
	want := map[string]string{"wal-1.log": "durable", "seg-1.seg": "segment"}
	if len(got) != len(want) || got["wal-1.log"] != want["wal-1.log"] || got["seg-1.seg"] != want["seg-1.seg"] {
		t.Fatalf("crash copy holds %v, want %v", got, want)
	}
	c := fs.counts()
	if c.bytesWritten[classWAL] != int64(len("durable+torn")+len("removed")) || c.bytesWritten[classSegment] != int64(len("segment")+len("never synced")) {
		t.Fatalf("bytes written per class: %v", c.bytesWritten)
	}
	if c.fsyncs != 3 || len(fs.syncDurations()) != 3 {
		t.Fatalf("fsyncs = %d, timed %d", c.fsyncs, len(fs.syncDurations()))
	}
}

func TestBudgetSumsToTopRung(t *testing.T) {
	res := &result{Metrics: map[string]float64{}, Samples: map[string]int{}}
	rungs := []rung{{"a", []float64{2, 2, 2}}, {"b", []float64{5, 6, 7}}, {"c", []float64{20, 30, 25}}}
	budget(res, "read", rungs, []string{"", "b.self", "c.self"})
	if res.Metrics["b.self"] != 4 || res.Metrics["c.self"] != 19 {
		t.Fatalf("self times %v", res.Metrics)
	}
	var sum, top float64
	for _, in := range res.Info {
		switch in.Name {
		case "budget.read.sum_of_self":
			sum = in.Value
		case "budget.read.top_rung":
			top = in.Value
		}
	}
	if sum != 25 || top != 25 {
		t.Fatalf("sum of self times %v, top rung %v", sum, top)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(kkeys ...float64) *resultSet {
		rs := &resultSet{}
		for _, v := range kkeys {
			rs.Runs = append(rs.Runs, &result{Workload: "w", Metrics: map[string]float64{"calls_s": v}})
		}
		return rs
	}
	m := endToEnd[0]
	if m.name != "calls_s" || m.better != "higher" {
		t.Fatalf("first end-to-end metric is %+v", m)
	}
	base := set(100, 101, 99, 100, 100)
	for _, tc := range []struct {
		b    *resultSet
		want string
	}{
		{set(100, 100, 101, 99, 100), "within"},
		{set(90, 91, 89, 90, 90), "within"},        // worse, by less than the bound
		{set(140, 141, 139, 140, 140), "within"},   // better
		{set(70, 71, 69, 70, 70), "regressed"},     // worse by 30%
		{set(60, 140, 100, 70, 130), "unresolved"}, // too noisy to say
	} {
		if _, _, _, got := verdictOf(m, base.values("w", m.name), tc.b.values("w", m.name)); got != tc.want {
			t.Errorf("verdict %s, want %s for %v", got, tc.want, tc.b.values("w", m.name))
		}
	}
	var out bytes.Buffer
	if compare(&out, base, set(70, 71, 69, 70, 70)) {
		t.Fatalf("compare accepted a regression:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the file the driver reads and the
// catalog the program prints from in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := printSpec(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Fatal("BENCHMARK.json differs from the catalog; regenerate it with -print-spec")
	}
	if runSeconds < 1 || runSeconds > 60 || len(workloads) != len(specs) {
		t.Fatalf("run_seconds %d, %d workloads for %d specs", runSeconds, len(workloads), len(specs))
	}
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 || (m.better != "lower" && m.better != "higher") || m.bound > 0.25 {
			t.Errorf("bad catalog entry %+v", m)
		}
		seen[m.name] = true
	}
	for i, w := range workloads {
		if w.name != specs[i].name || len(w.why) > 200 {
			t.Errorf("workload %d: %q against spec %q, why of %d characters", i, w.name, specs[i].name, len(w.why))
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes: every
// answer must be right, and every catalog metric must be printed exactly once.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := runSpec(sp, options{seed: 1, seconds: 0.3, trace: trace, smoke: true, root: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %s", sp.name, trace, res.Failed, res.Attempted, res.FirstFail)
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 2 && f[0] == "metric" {
					printed[f[2]]++
				}
			}
			line, err := driverLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatal(err)
			}
			want := catalogFor(trace)
			if len(printed) != len(want) || len(parsed.Metrics) != len(want) || !parsed.Correct {
				t.Errorf("%s trace=%v: printed %d, reported %d of %d metrics, correct=%v", sp.name, trace, len(printed), len(parsed.Metrics), len(want), parsed.Correct)
			}
			for _, m := range want {
				if printed[m.name] != 1 || parsed.Metrics[m.name].Unit != m.unit {
					t.Errorf("%s trace=%v: %s printed %d times, unit %q", sp.name, trace, m.name, printed[m.name], parsed.Metrics[m.name].Unit)
				}
				if v := parsed.Metrics[m.name].Value; !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v", sp.name, m.name, v)
				}
			}
		}
	}
}
