package experiments

import (
	"fmt"

	"learnedindex/internal/bench"
	"learnedindex/internal/core"
)

// Figure8Row is one dataset's conflict measurement.
type Figure8Row struct {
	Dataset        string
	RandomConflict float64
	ModelConflict  float64
	Reduction      float64
}

// Figure8 reproduces "Reduction of Conflicts" (§4.2): for each integer
// dataset, the conflict rate of a Murmur-style randomized hash vs the
// learned CDF hash, with a table of the same number of slots as records.
// The paper's hash model is a 2-stage RMI with no hidden layers at one
// leaf per ~2000 keys (100k models / 200M keys). At reduced N the same
// model family works, but the leaf-to-structure ratio must scale: one leaf
// per ~20 keys keeps each leaf inside one dense run, so the hash
// experiments (this one, Figure 11, Table 1) do not keep the paper's
// keys-per-leaf ratio at reduced N. The shape (Maps ≫ Web/Lognormal
// reduction) is what this experiment checks.
func Figure8(o Options) []Figure8Row {
	o = o.withDefaults()
	var rows []Figure8Row
	for _, ds := range IntegerDatasets(o.N, o.Seed) {
		keys := ds.Keys
		slots := len(keys)
		leaves := len(keys) / 20
		if leaves < 16 {
			leaves = 16
		}
		hcfg := core.DefaultConfig(leaves)
		hcfg.Seed = o.Seed
		lh := core.NewLearnedHashFromRMI(core.New(keys, hcfg), slots)
		model := core.MeasureConflicts(keys, slots, lh.Hash)
		random := core.MeasureConflicts(keys, slots, core.RandomHashFunc(slots))
		rows = append(rows, Figure8Row{
			Dataset:        ds.Name,
			RandomConflict: random.ConflictRate(),
			ModelConflict:  model.ConflictRate(),
			Reduction:      1 - model.ConflictRate()/random.ConflictRate(),
		})
	}
	if o.Out != nil {
		t := &bench.Table{
			Title:   fmt.Sprintf("Figure 8 — Reduction of Conflicts (N=%d, slots=N)", o.N),
			Headers: []string{"Dataset", "% Conflicts Hash Map", "% Conflicts Model", "Reduction"},
		}
		for _, r := range rows {
			t.Add(r.Dataset,
				fmt.Sprintf("%.1f%%", r.RandomConflict*100),
				fmt.Sprintf("%.1f%%", r.ModelConflict*100),
				fmt.Sprintf("%.1f%%", r.Reduction*100))
		}
		render(o, t)
	}
	return rows
}
