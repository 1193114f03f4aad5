package core

import (
	"bytes"
	"testing"

	"learnedindex/internal/data"
)

// TestParallelTrainerBitIdentical pins the tentpole contract of the
// parallel trainer: for every stage-1 model family, multi-stage shapes,
// and a few wide leaves, the serialized bytes of a parallel-trained
// RMI equal the sequential trainer's exactly — coefficients, error
// windows, standard errors, and the global error stats
// down to the last float bit. Worker counts beyond the chunk count and
// non-power-of-two counts are included so chunk-boundary arithmetic is
// covered too.
func TestParallelTrainerBitIdentical(t *testing.T) {
	keys := data.LognormalPaper(60_000, 17)
	cases := map[string]Config{
		"linear-default": DefaultConfig(500),
		"multivariate":   {Top: TopMultivariate, StageSizes: []int{300}, Seed: 1},
		"nn-top":         {Top: TopNN, Hidden: []int{8}, StageSizes: []int{120}, Seed: 1, SubsampleTop: 20_000},
		"hybrid":         {Top: TopLinear, StageSizes: []int{60}, Seed: 1}, // few wide leaves: what §3.3's hybrid rule would replace
		"multi-stage":    {Top: TopLinear, StageSizes: []int{8, 64, 500}, Seed: 1},
		"zero-config":    {},                    // sized by rule: the inner stage is fit on the top's sample
		"zero-strided":   {SubsampleTop: 5_000}, // the same with a strided sample, as above 200k keys
	}
	for name, cfg := range cases {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			seq := NewWithTrainWorkers(keys, cfg, 1)
			want, err := seq.AppendBinary(nil)
			if err != nil {
				t.Fatalf("encode sequential: %v", err)
			}
			if len(cfg.StageSizes) == 0 && len(seq.Config().StageSizes) != 2 {
				t.Fatalf("zero Config trained stages %v, want an inner stage", seq.Config().StageSizes)
			}
			for _, workers := range []int{2, 3, 8, 64} {
				par := NewWithTrainWorkers(keys, cfg, workers)
				got, err := par.AppendBinary(nil)
				if err != nil {
					t.Fatalf("encode workers=%d: %v", workers, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: serialized bytes differ from sequential trainer (%d vs %d bytes)",
						workers, len(got), len(want))
				}
				if par.MeanAbsErr() != seq.MeanAbsErr() || par.MaxAbsErr() != seq.MaxAbsErr() {
					t.Fatalf("workers=%d: error stats drifted", workers)
				}
			}
		})
	}
}

// TestParallelTrainerLookupEquivalence spot-checks that a parallel-trained
// index answers exactly like its sequential twin on members, misses, and
// extremes — a behavioral backstop for the byte-level test above.
func TestParallelTrainerLookupEquivalence(t *testing.T) {
	keys := data.Maps(70_000, 23)
	cfg := DefaultConfig(700)
	seq := NewWithTrainWorkers(keys, cfg, 1)
	par := NewWithTrainWorkers(keys, cfg, 5)
	probes := append(data.SampleExisting(keys, 3000, 24), data.SampleMissing(keys, 3000, 25)...)
	probes = append(probes, 0, keys[0], keys[len(keys)-1], keys[len(keys)-1]+1, ^uint64(0))
	for _, k := range probes {
		if a, b := seq.Lookup(k), par.Lookup(k); a != b {
			t.Fatalf("Lookup(%d): sequential %d, parallel %d", k, a, b)
		}
	}
}

func TestTrainingWorkersClamp(t *testing.T) {
	if w := TrainingWorkers(100); w != 1 {
		t.Fatalf("tiny input got %d workers, want 1", w)
	}
	if w := TrainingWorkers(1 << 22); w < 1 {
		t.Fatalf("workers=%d < 1", w)
	}
	// Explicit worker counts below 1 clamp instead of panicking.
	r := NewWithTrainWorkers(data.Dense(1000, 10, 3), DefaultConfig(16), 0)
	if r.Lookup(r.Keys()[500]) != 500 {
		t.Fatal("workers=0 trainer broken")
	}
}
