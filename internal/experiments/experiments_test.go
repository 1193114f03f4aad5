package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns laptop-CI-sized options with table rendering captured.
func tiny() (Options, *bytes.Buffer) {
	var buf bytes.Buffer
	return Options{
		N: 200_000, NStr: 30_000, NUrl: 10_000,
		Probes: 5_000, Rounds: 1, Seed: 1, Out: &buf,
	}, &buf
}

func TestFigure4ShapeHolds(t *testing.T) {
	o, buf := tiny()
	rows := Figure4(o)
	if len(rows) != 3*(5+4) {
		t.Fatalf("got %d rows, want 27", len(rows))
	}
	// The headline claim per dataset, relaxed for smoke-test scale (the
	// NN top's fixed ~300ns cost is amortized only at bench scale where
	// B-Tree traversals start missing cache): at least one learned
	// configuration within 2x of the page-128 B-Tree while >4x smaller.
	perDataset := map[string]bool{}
	var refSize = map[string]int{}
	for _, r := range rows {
		if strings.Contains(r.Config, "page size: 128") {
			refSize[r.Dataset] = r.SizeBytes
		}
	}
	for _, r := range rows {
		if !strings.Contains(r.Config, "Learned") {
			continue
		}
		if r.SpeedUp >= 0.5 && r.SizeBytes*4 < refSize[r.Dataset] {
			perDataset[r.Dataset] = true
		}
	}
	for _, ds := range []string{"Map Data", "Web Data", "Log-Normal"} {
		if !perDataset[ds] {
			t.Errorf("%s: no learned config was competitive in speed and >4x smaller", ds)
		}
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("table not rendered")
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	o, _ := tiny()
	rows := Figure5(o)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]Figure5Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	fastRow := byName["FAST"]
	learned := byName["Multivariate Learned Index"]
	// FAST pays the power-of-two padding: it must be much larger than the
	// learned index (the paper's 1024MB vs 1.5MB contrast).
	if fastRow.SizeBytes < learned.SizeBytes*10 {
		t.Errorf("FAST (%d B) should dwarf the learned index (%d B)", fastRow.SizeBytes, learned.SizeBytes)
	}
}

func TestFigure6Runs(t *testing.T) {
	o, buf := tiny()
	rows := Figure6(o)
	if len(rows) != 4+7 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Learned string indexes must undercut the page-32 string B-Tree's
	// footprint (at smoke scale the fixed NN weights are a visible share;
	// at bench scale the page-128 comparison of Figure 6 holds too).
	var ref int
	for _, r := range rows {
		if strings.Contains(r.Config, "32") && strings.Contains(r.Config, "Btree") {
			ref = r.SizeBytes
		}
	}
	for _, r := range rows {
		if strings.Contains(r.Config, "Learned Index") && r.SizeBytes >= ref {
			t.Errorf("%s (%d B) not smaller than page-128 B-Tree (%d B)", r.Config, r.SizeBytes, ref)
		}
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("table not rendered")
	}
}

func TestFigure8ShapeHolds(t *testing.T) {
	o, _ := tiny()
	rows := Figure8(o)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	var mapRed float64
	for _, r := range rows {
		if r.Reduction <= 0 {
			t.Errorf("%s: learned hash did not reduce conflicts (%.3f)", r.Dataset, r.Reduction)
		}
		if r.RandomConflict < 0.30 || r.RandomConflict > 0.45 {
			t.Errorf("%s: random conflict %.3f outside birthday-paradox band", r.Dataset, r.RandomConflict)
		}
		if r.Dataset == "Map Data" {
			mapRed = r.Reduction
		}
	}
	// Paper shape: Maps shows by far the largest reduction.
	for _, r := range rows {
		if r.Dataset != "Map Data" && r.Reduction >= mapRed {
			t.Errorf("expected Map Data to lead; %s %.2f >= maps %.2f", r.Dataset, r.Reduction, mapRed)
		}
	}
}

func TestFigure10ShapeHolds(t *testing.T) {
	o, _ := tiny()
	pts := Figure10(o, false)
	// For each target FPR, the learned filter (logistic series) must beat
	// the standard filter's footprint.
	std := map[float64]int{}
	for _, p := range pts {
		if p.Series == "BloomFilter" {
			std[p.TargetFPR] = p.SizeBytes
		}
	}
	beats := 0
	for _, p := range pts {
		if p.Series == "Logistic 3-gram" && p.SizeBytes < std[p.TargetFPR] {
			beats++
		}
	}
	if beats < 2 {
		t.Errorf("learned filter beat the standard filter at only %d FPR targets", beats)
	}
}

func TestFigure11ShapeHolds(t *testing.T) {
	o, _ := tiny()
	rows := Figure11(o)
	if len(rows) != 3*3*2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// At every slot budget, the model hash must waste less space on the
	// Maps dataset (the paper's "almost 80% reduction" case).
	for i := 0; i < len(rows); i += 2 {
		model, random := rows[i], rows[i+1]
		if model.Dataset != "Map Data" {
			continue
		}
		if model.EmptyBytes >= random.EmptyBytes {
			t.Errorf("maps %d%%: model empty %d >= random %d", model.SlotsPct, model.EmptyBytes, random.EmptyBytes)
		}
	}
}

func TestTable1Runs(t *testing.T) {
	o, _ := tiny()
	rows := Table1(o)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Lookup <= 0 {
			t.Errorf("%s: no measurement", r.Name)
		}
	}
	// The in-place chained map reaches 100% utilization by construction.
	if rows[3].Utilization < 0.999 {
		t.Errorf("in-place utilization %.3f, want 1.0", rows[3].Utilization)
	}
}

func TestNaiveShapeHolds(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the interpreted/native timing ratio")
	}
	o, _ := tiny()
	rows := Naive(o)
	interp, native, btree := rows[1].Lookup, rows[2].Lookup, rows[4].Lookup
	// §2.3's lesson: interpreted model execution is orders of magnitude
	// slower than both native execution and a B-Tree traversal.
	if interp < native*4 {
		t.Errorf("interpreted model (%v) should be >>4x native (%v)", interp, native)
	}
	if interp < btree*5 {
		t.Errorf("interpreted model (%v) should be >>5x a B-Tree lookup (%v)", interp, btree)
	}
}

func TestAppendixAScaling(t *testing.T) {
	o, _ := tiny()
	o.N = 200_000
	_, alpha := AppendixA(o)
	// Appendix A predicts O(√N): the exponent must sit near 0.5, far from
	// a constant-sized B-Tree's linear growth.
	if alpha < 0.3 || alpha > 0.7 {
		t.Errorf("error scaling exponent %.2f, want ~0.5", alpha)
	}
}

func TestCompiledShapeHolds(t *testing.T) {
	o, buf := tiny()
	rows := Compiled(o)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.PerKey <= 0 || r.SpeedUp <= 0 {
			t.Errorf("%s: no measurement (%v, %.2fx)", r.Config, r.PerKey, r.SpeedUp)
		}
		if r.IdxBytes == 0 {
			t.Errorf("%s: no index size", r.Config)
		}
	}
	if !strings.Contains(buf.String(), "Compiled vs interpreted") {
		t.Fatal("table not rendered")
	}
}

func TestSearchShootoutShapeHolds(t *testing.T) {
	o, buf := tiny()
	rows := SearchShootout(o)
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.PerProbe <= 0 {
			t.Errorf("%s: no measurement", r.Strategy)
		}
	}
	if rows[0].Strategy != "binary" || rows[0].SpeedUp != 1 {
		t.Fatalf("binary must be the 1.00x baseline, got %+v", rows[0])
	}
	if !strings.Contains(buf.String(), "Search shootout") {
		t.Fatal("table not rendered")
	}
}

func TestAppendixERuns(t *testing.T) {
	o, buf := tiny()
	AppendixE(o)
	if !strings.Contains(buf.String(), "Appendix E") {
		t.Fatal("table not rendered")
	}
}
