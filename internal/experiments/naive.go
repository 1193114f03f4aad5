package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"learnedindex/internal/bench"
	"learnedindex/internal/btree"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/search"
)

// NaiveRow is one measurement of the §2.3 experiment.
type NaiveRow struct {
	Name   string
	Lookup time.Duration
}

// Naive reproduces the §2.3 "first, naïve learned index" experiment on the
// Weblogs dataset: a single two-layer 32-wide network executed through a
// dataflow-graph interpreter (the Tensorflow+Python stand-in) against a
// B-Tree traversal and whole-array binary search — plus the same network
// executed natively, previewing the §3.1 LIF answer.
//
// The paper's numbers: ~80,000ns for the interpreted model vs ~300ns B-Tree
// vs ~900ns binary search. Shape to verify: interpreted model ≫ binary
// search > B-Tree, and native execution collapses the model cost by orders
// of magnitude.
func Naive(o Options) []NaiveRow {
	o = o.withDefaults()
	n := o.N
	if n > 500_000 {
		n = 500_000 // the naïve index exists to be slow; keep training sane
	}
	keys := data.Weblogs(n, o.Seed)
	probes := data.SampleExisting(keys, o.Probes/10, o.Seed+1)

	ni := core.NewNaive(keys, o.Seed)
	bt := btree.New([]uint64(keys), 128)

	// Each row is the best of three timed rounds, taken in turn with the
	// other rows' and each on a collected heap, so a busy stretch of a
	// shared host — or a collection the interpreter's garbage started —
	// costs every row one round instead of setting one row.
	timed := []struct {
		name   string
		rounds int
		fn     func(uint64) int
	}{
		{"Naive learned index (interpreted model, no err bounds)", 1, ni.Lookup},
		{"  ... model execution only (interpreted)", 1, ni.PredictInterpreted},
		{"  ... same weights, native execution (LIF mode)", o.Rounds, ni.PredictNative},
		{"  ... native model + exponential search", o.Rounds, ni.LookupNative},
		{"B-Tree (page 128) traversal", o.Rounds, bt.Lookup},
		{"Binary search over entire array", o.Rounds, func(k uint64) int {
			return search.Binary(keys, k, 0, len(keys))
		}},
	}
	rows := make([]NaiveRow, len(timed))
	for i, r := range timed {
		rows[i] = NaiveRow{Name: r.name, Lookup: time.Duration(math.MaxInt64)}
	}
	for round := 0; round < 3; round++ {
		for i, r := range timed {
			runtime.GC()
			rows[i].Lookup = min(rows[i].Lookup, bench.TimeLookups(probes, r.rounds, r.fn))
		}
	}
	if o.Out != nil {
		t := &bench.Table{
			Title:   fmt.Sprintf("§2.3 — The naïve learned index (N=%d weblog timestamps)", n),
			Headers: []string{"Approach", "Time (ns)"},
		}
		for _, r := range rows {
			t.Add(r.Name, ns(r.Lookup))
		}
		render(o, t)
	}
	return rows
}
