package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"learnedindex/internal/data"
	"learnedindex/internal/obs"
)

// assertKernelEquivalent runs the batch kernel over plans with the given
// per-probe selectors and checks every answer against the per-key path of
// the selected plan, bit for bit, and against its sort.Search lower bound.
func assertKernelEquivalent(t *testing.T, name string, plans []*Plan, sel []int32, probes []uint64) {
	t.Helper()
	pos := make([]int, len(probes))
	LookupBatch(plans, sel, probes, pos)
	has := make([]bool, len(probes))
	ContainsBatch(plans, sel, probes, has)
	for i, k := range probes {
		p := plans[0]
		if sel != nil {
			p = plans[sel[i]]
		}
		if want := p.Lookup(k); pos[i] != want {
			t.Fatalf("%s: LookupBatch[%d] (plan %v, key %d) = %d, Plan.Lookup = %d", name, i, sel, k, pos[i], want)
		}
		if want := oracle(p.keys, k); pos[i] != want {
			t.Fatalf("%s: LookupBatch[%d] (plan %v, key %d) = %d, lower bound %d", name, i, sel, k, pos[i], want)
		}
		if want := p.Contains(k); has[i] != want {
			t.Fatalf("%s: ContainsBatch[%d] (key %d) = %v, Plan.Contains = %v", name, i, k, has[i], want)
		}
	}
}

// kernelProbes draws n probes for a set of key arrays: stored keys,
// near-misses, duplicates of earlier probes, keys of a *different* plan
// than the one selected (so windows miss), and the out-of-range extremes.
func kernelProbes(rng *rand.Rand, keysets [][]uint64, n int) (probes []uint64, sel []int32) {
	probes = make([]uint64, n)
	sel = make([]int32, n)
	for i := range probes {
		sel[i] = int32(rng.Intn(len(keysets)))
		from := keysets[sel[i]]
		if len(from) == 0 || rng.Intn(8) == 0 {
			from = keysets[rng.Intn(len(keysets))] // another plan's key
		}
		switch c := rng.Intn(10); {
		case len(from) == 0 || c == 0:
			probes[i] = rng.Uint64()
		case c == 1:
			probes[i] = []uint64{0, 1, ^uint64(0), from[0] - 1, from[len(from)-1] + 1}[rng.Intn(5)]
		case c == 2 && i > 0:
			probes[i] = probes[rng.Intn(i)] // duplicate probe
		case c == 3:
			probes[i] = from[rng.Intn(len(from))] + 1 // near miss
		default:
			probes[i] = from[rng.Intn(len(from))]
		}
	}
	return probes, sel
}

// TestBatchKernelOracle is the batch kernel's contract: for any set of
// plans — every TopKind on every dataset, leaves with wide windows, a
// multi-stage plan, the self-sized zero Config, an empty plan, tiny plans — any
// selector and any probe order, LookupBatch and ContainsBatch answer
// exactly what per-key Plan.Lookup and Plan.Contains answer, and the lower
// bound, at every batch size around the tile width.
func TestBatchKernelOracle(t *testing.T) {
	var plans []*Plan
	var keysets [][]uint64
	add := func(keys []uint64, cfg Config) *RMI {
		r := New(keys, cfg)
		plans = append(plans, r.Plan())
		keysets = append(keysets, keys)
		return r
	}
	datasets := allDatasets(6_000)
	for _, name := range []string{"maps", "weblogs", "lognormal"} {
		for _, top := range []TopKind{TopLinear, TopMultivariate, TopNN} {
			cfg := DefaultConfig(40)
			cfg.Top = top
			if top == TopNN {
				cfg.Hidden = []int{8}
			}
			add(datasets[name], cfg)
		}
	}
	// Weblogs over few leaves: every window is wider than 24 keys.
	add(data.Weblogs(20_000, 1), DefaultConfig(60))
	staged := DefaultConfig(0)
	staged.StageSizes = []int{8, 80, 800}
	add(data.Lognormal(25_000, 0, 2, 1_000_000_000, 1), staged)
	// The zero Config, which sizes itself: a sampled inner stage in front
	// of the leaves, down to empty and one-key sets.
	if ss := add(data.Lognormal(25_000, 0, 2, 1_000_000_000, 2), Config{}).Config().StageSizes; len(ss) != 2 {
		t.Fatalf("zero Config over lognormal keys trained stages %v, want an inner stage", ss)
	}
	add(data.Uniform(25_000, 1<<40, 3), Config{})
	add(nil, Config{})
	add([]uint64{9}, Config{})
	add(nil, DefaultConfig(4))
	add([]uint64{9}, DefaultConfig(4))
	add([]uint64{3, 7}, DefaultConfig(4))

	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		probes, sel := kernelProbes(rng, keysets, n)
		assertKernelEquivalent(t, "shuffled", plans, sel, probes)

		// Ascending probes with their selectors carried along.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return probes[order[a]] < probes[order[b]] })
		sp, ss := make([]uint64, n), make([]int32, n)
		for j, o := range order {
			sp[j], ss[j] = probes[o], sel[o]
		}
		assertKernelEquivalent(t, "sorted", plans, ss, sp)

		// The one-plan case, nil selector, through every plan in turn.
		for pi, p := range plans {
			one, _ := kernelProbes(rng, keysets[pi:pi+1], n)
			assertKernelEquivalent(t, "one-plan", []*Plan{p}, nil, one)
		}
	}
}

// FuzzBatchKernel differentially fuzzes the batch kernel against per-key
// Plan.Lookup and against sort.Search: the raw bytes become up to three
// sorted unique key arrays (each its own plan — one of them possibly
// empty), the probe bytes become probes and selectors, and every answer
// must be the selected plan's true lower bound. It sits in core, not
// beside search.FuzzLowerBoundSearch, because search cannot import core.
func FuzzBatchKernel(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0, 9, 0, 4, 1, 7, 3}, []byte{2, 0, 0, 9, 0, 1, 255, 255, 2}, uint8(2))
	f.Add([]byte{}, []byte{5, 0, 0}, uint8(0))                                   // every plan empty
	f.Add([]byte{7, 0, 7, 0, 7, 0}, []byte{7, 0, 1, 6, 0, 2, 8, 0, 0}, uint8(1)) // duplicates collapse
	f.Add(make([]byte, 400), make([]byte, 3*70), uint8(3))                       // more than one tile
	// Every probe above every plan's maximum key (keys ≤ 200, probes ≥
	// 0xff00), over more than one tile: each cursor ends on its array's
	// last key and the epilogue answers len(keys).
	above := make([]byte, 0, 3*70)
	for j := 0; j < 70; j++ {
		above = append(above, byte(j), 0xff, byte(j))
	}
	f.Add([]byte{1, 0, 5, 0, 2, 0, 9, 0, 3, 0, 200, 0}, above, uint8(2))
	// One wide leaf: every plan's keys are two clusters at opposite ends of
	// the domain, which the one leaf fits with an error window about as
	// wide as the plan; the probes sweep the domain, the gap between the
	// clusters included.
	var skew, sweep []byte
	for part := 0; part < 3; part++ {
		for j := 0; j < 20; j++ {
			skew = binary.LittleEndian.AppendUint16(skew, uint16(j))
			skew = binary.LittleEndian.AppendUint16(skew, uint16(60_000+j))
		}
	}
	for j := 0; j < 70; j++ {
		sweep = append(binary.LittleEndian.AppendUint16(sweep, uint16(j*900)), byte(j))
	}
	f.Add(skew, sweep, uint8(0))

	f.Fuzz(func(t *testing.T, raw, probeRaw []byte, leaves uint8) {
		if len(raw) > 1<<12 || len(probeRaw) > 1<<11 {
			t.Skip("keep training cheap")
		}
		cfg := DefaultConfig(int(leaves%16) + 1)
		var plans []*Plan
		var keysets [][]uint64
		for part := 0; part < 3; part++ {
			chunk := raw[part*len(raw)/3 : (part+1)*len(raw)/3]
			keys := make([]uint64, 0, len(chunk)/2)
			for i := 0; i+2 <= len(chunk); i += 2 {
				keys = append(keys, uint64(binary.LittleEndian.Uint16(chunk[i:])))
			}
			slices.Sort(keys)
			keys = slices.Compact(keys)
			keysets = append(keysets, keys)
			plans = append(plans, New(keys, cfg).Plan())
		}
		var probes []uint64
		var sel []int32
		for i := 0; i+3 <= len(probeRaw); i += 3 {
			probes = append(probes, uint64(binary.LittleEndian.Uint16(probeRaw[i:])))
			sel = append(sel, int32(probeRaw[i+2]%3))
		}
		pos := make([]int, len(probes))
		LookupBatch(plans, sel, probes, pos)
		has := make([]bool, len(probes))
		ContainsBatch(plans, sel, probes, has)
		for i, k := range probes {
			keys := keysets[sel[i]]
			want := sort.Search(len(keys), func(j int) bool { return keys[j] >= k })
			if pos[i] != want || plans[sel[i]].Lookup(k) != want {
				t.Fatalf("probe %d (plan %d, key %d): batch %d, per-key %d, lower bound %d",
					i, sel[i], k, pos[i], plans[sel[i]].Lookup(k), want)
			}
			if wantHas := want < len(keys) && keys[want] == k; has[i] != wantHas {
				t.Fatalf("probe %d (plan %d, key %d): ContainsBatch %v, want %v", i, sel[i], k, has[i], wantHas)
			}
		}
	})
}

// TestBatchKernelCursorInBounds pins the kernel's pointer discipline: a
// probe's search cursor is an unsafe.Pointer into its plan's key array and
// must never point past the array's last key, where the GC could find the
// next object. Every key array is its own exact-size allocation, so a
// cursor one key past its end points at a neighbouring object, a free slot
// or an unallocated span, and the collector's pointer checks abort the run
// ("found pointer to free object", "found bad pointer in Go heap"). Tiles
// whose probes all sit above the maximum, all below the minimum, all on
// the first or last key, or a mix of these, run while another goroutine
// collects garbage in a loop, and every answer must be the per-key one.
func TestBatchKernelCursorInBounds(t *testing.T) {
	var plans []*Plan
	var keysets [][]uint64
	for i, n := range []int{1, 2, 63, 64, 65, 1 << 20} {
		keys := make([]uint64, n)
		for j, k := range data.Lognormal(n, 0, 2, 1<<40, int64(i+1)) {
			keys[j] = k + 1 // leaves room below the minimum
		}
		keysets = append(keysets, keys)
		plans = append(plans, New(keys, Config{}).Plan())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	rng := rand.New(rand.NewSource(31))
	above := func(keys []uint64) uint64 {
		last := keys[len(keys)-1]
		return []uint64{last + 1, ^uint64(0), last + 1 + rng.Uint64()>>1}[rng.Intn(3)]
	}
	below := func(keys []uint64) uint64 { return rng.Uint64() % keys[0] }
	edge := func(keys []uint64) uint64 { return []uint64{keys[0], keys[len(keys)-1]}[rng.Intn(2)] }
	shapes := []struct {
		name string
		draw func(keys []uint64) uint64
	}{
		{"above", above},
		{"below", below},
		{"edges", edge},
		{"mixed", func(keys []uint64) uint64 {
			k := keys[rng.Intn(len(keys))]
			return []uint64{above(keys), below(keys), edge(keys), k, k + 1}[rng.Intn(5)]
		}},
	}
	// A stray cursor is only caught if a collection scans the stack while
	// it points outside its array, so each tile, once checked against the
	// per-key path, reruns many times against that answer.
	got := make([]int, 3*batchTile+5)
	check := func(name string, plans []*Plan, sel []int32, probes []uint64) {
		assertKernelEquivalent(t, name, plans, sel, probes)
		want := make([]int, len(probes))
		LookupBatch(plans, sel, probes, want)
		for rep := 0; rep < 40; rep++ {
			LookupBatch(plans, sel, probes, got[:len(probes)])
			if !slices.Equal(got[:len(probes)], want) {
				t.Fatalf("%s: rerun %d answered %v, first run %v", name, rep, got[:len(probes)], want)
			}
		}
	}
	for _, sh := range shapes {
		for _, n := range []int{1, batchTile - 1, batchTile, 3*batchTile + 5} {
			sel := make([]int32, n)
			probes := make([]uint64, n)
			for j := range probes {
				sel[j] = int32(rng.Intn(len(plans)))
				probes[j] = sh.draw(keysets[sel[j]])
			}
			check(sh.name+"/every plan", plans, sel, probes)
			for pi, p := range plans {
				for j := range probes {
					probes[j] = sh.draw(keysets[pi])
				}
				check(fmt.Sprintf("%s/%d keys", sh.name, len(keysets[pi])), []*Plan{p}, nil, probes)
			}
		}
	}
}

// TestBatchKernelSamplesAnySlot pins the model-health sampling fix: the
// sampled slot of a tile is picked by key hash, so in an ascending batch
// (what a sorting caller produces) the sample is no longer always the
// smallest key of its group.
func TestBatchKernelSamplesAnySlot(t *testing.T) {
	keys := data.Lognormal(50_000, 0, 2, 1_000_000_000, 3)
	p := New(keys, DefaultConfig(50)).Plan()
	probes := append([]uint64(nil), keys[:batchTile*200]...) // ascending, tile-aligned
	out := make([]int, len(probes))
	p.LookupBatch(probes, out)
	got := p.ObsModelErr().Count
	if !obs.Enabled {
		if got != 0 {
			t.Fatalf("noobs build observed %d samples", got)
		}
		return
	}
	// The old rule could only ever sample a tile's first probe. Count what
	// it would have admitted and what the kernel's rule admits: the kernel
	// must see tiles whose first probe is not a sampled key.
	first, any := 0, 0
	for start := 0; start < len(probes); start += batchTile {
		if obs.SampleKey(probes[start]) {
			first++
		}
		if slices.ContainsFunc(probes[start:start+batchTile], obs.SampleKey) {
			any++
		}
	}
	if int(got) != any || any <= first {
		t.Fatalf("sampled %d tiles; want %d (tiles holding a sampled key), more than the %d a first-slot rule admits", got, any, first)
	}
}
