package storage

import (
	"bytes"
	"cmp"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

// engineAnswers is everything a reader can ask of an engine, for one probe
// set: batched ranks, batched membership, and the full scan.
type engineAnswers[K comparable] struct {
	rank []int
	has  []bool
	scan []K
}

// TestOldShapeSegmentsReopenUnderZeroConfig is the compatibility contract of
// core's zero-Config sizing rule. Segments written with the two-stage shape
// the zero Config used to train (explicit StageSizes{n/1000}) reopen under
// the zero Config with their models loaded, not retrained; they keep
// serving the shape they were written with; the first compaction retrains
// under the rule (the merged segment gains the inner stage); and every
// answer is the same before and after.
func TestOldShapeSegmentsReopenUnderZeroConfig(t *testing.T) {
	const runs, perRun = 4, 6_000 // CompactFanout similar-sized segments: one compaction
	t.Run("uint64", func(t *testing.T) {
		keys := data.LognormalPaper(runs*perRun, 31)
		shuffled := slices.Clone([]uint64(keys))
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		probes := append(data.SampleExisting(keys, 500, 2), data.SampleMissing(keys, 500, 3)...)
		checkOldShapeReopen(t, Options{}, shuffled, perRun, (*Engine).AppendBatch,
			func(e *Engine) engineAnswers[uint64] {
				a := engineAnswers[uint64]{rank: make([]int, len(probes)), has: make([]bool, len(probes)), scan: e.Keys()}
				e.LookupBatch(probes, a.rank)
				e.ContainsBatch(probes, a.has)
				return a
			})
	})
	t.Run("string", func(t *testing.T) {
		keys := data.DocIDs(runs*perRun, 32)
		shuffled := slices.Clone([]string(keys))
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		probes := data.SampleExistingStrings(keys, 500, 2)
		for _, k := range probes[:250] {
			probes = append(probes, k+"~", k[:len(k)-1])
		}
		checkOldShapeReopen(t, Options{StringKeys: true}, shuffled, perRun, (*Engine).AppendStringBatch,
			func(e *Engine) engineAnswers[string] {
				a := engineAnswers[string]{rank: make([]int, len(probes)), has: make([]bool, len(probes)), scan: e.KeysStrings()}
				e.LookupBatchString(probes, a.rank)
				e.ContainsBatchString(probes, a.has)
				return a
			})
	})
}

func checkOldShapeReopen[K comparable](t *testing.T, opts Options, keys []K, perRun int,
	appendBatch func(*Engine, []K) error, ask func(*Engine) engineAnswers[K]) {
	same := func(a, b engineAnswers[K]) bool {
		return slices.Equal(a.rank, b.rank) && slices.Equal(a.has, b.has) && slices.Equal(a.scan, b.scan)
	}
	dir := t.TempDir()
	opts.NoCompactor = true

	old := opts
	old.Config = core.Config{StageSizes: []int{perRun / 1000}}
	e := openT(t, dir, old)
	for at := 0; at < len(keys); at += perRun {
		if err := appendBatch(e, keys[at:at+perRun]); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := ask(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e = openT(t, dir, opts) // the zero Config
	defer e.Close()
	st := e.Stats()
	if st.Segments != len(keys)/perRun || st.ModelsLoaded != st.Segments || st.ModelsTrained != 0 {
		t.Fatalf("reopen under the zero Config: %d segments, %d models loaded, %d trained; want all loaded, none trained",
			st.Segments, st.ModelsLoaded, st.ModelsTrained)
	}
	for _, s := range *e.segs.Load() {
		if ss := s.rmi.Config().StageSizes; len(ss) != 1 {
			t.Fatalf("loaded segment has stages %v, want the two-stage shape it was written with", ss)
		}
	}
	if !same(ask(e), want) {
		t.Fatal("answers changed across reopen")
	}

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Segments != 1 || st.ModelsTrained != 1 {
		t.Fatalf("after compaction: %d segments, %d models trained; want 1 and 1", st.Segments, st.ModelsTrained)
	}
	if ss := (*e.segs.Load())[0].rmi.Config().StageSizes; len(ss) != 2 {
		t.Fatalf("compacted segment trained stages %v, want the rule's inner stage", ss)
	}
	if !same(ask(e), want) {
		t.Fatal("answers changed across the compaction that retrained under the zero Config")
	}
}

// TestUnreservedLogsReplayUnchanged is the compatibility contract of log
// reservation: a log as every earlier version wrote it — frames back to
// back from offset 0 and the file ending where they end — is byte for byte
// what today's writer puts in front of its reserved tail, replays to the same
// keys with nothing cut, and recovers through Open, torn tail and all.
func TestUnreservedLogsReplayUnchanged(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		recs := [][]uint64{{5, 1, 9}, {1 << 40}, {7, 7, 1<<64 - 1}}
		var old []byte
		var keys []uint64
		w := newWALT(t, filepath.Join(t.TempDir(), walFileName(0)))
		for _, rec := range recs {
			old, keys = append(old, walTestFrame(rec...)...), append(keys, rec...)
			if err := logRecord(w, &u64Ops, rec); err != nil {
				t.Fatal(err)
			}
		}
		checkOldLog(t, Options{NoCompactor: true}, w, old, walFileName(3), keys,
			replayWAL, (*Engine).Keys)
	})
	t.Run("string", func(t *testing.T) {
		recs := [][]string{{"delta", "", "x\x00y"}, {"alpha"}, {"delta", "omega"}}
		var old []byte
		var keys []string
		w := newWALT(t, filepath.Join(t.TempDir(), walStrFileName(0)))
		for _, rec := range recs {
			old, keys = append(old, walTestStringFrame(rec...)...), append(keys, rec...)
			if err := logRecord(w, &strOps, rec); err != nil {
				t.Fatal(err)
			}
		}
		checkOldLog(t, Options{NoCompactor: true, StringKeys: true}, w, old, walStrFileName(3), keys,
			replayWALStrings, (*Engine).KeysStrings)
	})
}

func checkOldLog[K cmp.Ordered](t *testing.T, opts Options, w *wal, old []byte, name string, keys []K,
	replay func([]byte) ([]K, int64), served func(*Engine) []K) {
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(w.path)
	w.close()
	if err != nil {
		t.Fatal(err)
	}
	if w.size != int64(len(old)) || !bytes.Equal(img[:w.size], old) {
		t.Fatalf("the writer's first %d bytes differ from the %d an unreserved log holds", w.size, len(old))
	}
	if got, good := replay(old); good != int64(len(old)) || !slices.Equal(got, keys) {
		t.Fatalf("unreserved log replayed %d keys up to byte %d, want %d keys up to %d", len(got), good, len(keys), len(old))
	}
	// Through Open, with the torn half of one more frame behind the last.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), append(slices.Clone(old), old[:len(old)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	e := openT(t, dir, opts)
	defer e.Close()
	want := slices.Clone(keys)
	slices.Sort(want)
	if got := served(e); !slices.Equal(got, slices.Compact(want)) {
		t.Fatalf("Open over an unreserved log serves %v, want %v", got, want)
	}
}

// TestParentWrittenDirectoryOpens is the compatibility contract of the
// drain/spill split, which changed no format: testdata/parent-* are
// directories the commit before it wrote (testdata/README.md has the
// generator: six 400-key flushes, the first four compacted into one file,
// then a log holding a committed, a synced and another committed batch,
// copied with the engine still open and the log's reservation cut to 64
// zero bytes). They open with every model loaded and the log replayed, serve
// exactly the keys listed in KEYS, and keep doing so through a drain, a
// spill, a compaction and a clean reopen.
func TestParentWrittenDirectoryOpens(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		name := map[bool]string{false: "parent-u64", true: "parent-str"}[strMode]
		dir := t.TempDir()
		ents, err := os.ReadDir(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, ent := range ents {
			b, err := os.ReadFile(filepath.Join("testdata", name, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if ent.Name() == "KEYS" {
				want = strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		served := func(e *Engine) []string {
			if strMode {
				return e.KeysStrings()
			}
			var out []string
			for _, k := range e.Keys() {
				out = append(out, strconv.FormatUint(k, 10))
			}
			slices.Sort(out) // KEYS lists the decimal forms in string order
			return out
		}
		e := openT(t, dir, Options{NoCompactor: true, StringKeys: strMode})
		st := e.Stats()
		if st.ModelsLoaded != 3 || st.ModelsTrained != 1 || st.Segments != 4 || st.Keys != len(want) {
			t.Fatalf("%s: opened as %+v, want 3 models loaded, the log's keys trained into a 4th segment, %d keys", name, st, len(want))
		}
		if got := served(e); !slices.Equal(got, want) {
			t.Fatalf("%s: serves %d keys, KEYS lists %d", name, len(got), len(want))
		}
		extra := seqKeys(1, 300, 1<<40)
		if strMode {
			err = e.AppendStringBatch(strKeysOf(extra))
			want = append(want, strKeysOf(extra)...)
		} else {
			err = e.AppendBatch(extra)
			for _, k := range extra {
				want = append(want, strconv.FormatUint(k, 10))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(want)
		for step, do := range []func() error{e.Drain, e.Flush, e.Compact} {
			if err := do(); err != nil {
				t.Fatal(err)
			}
			if got := served(e); !slices.Equal(got, want) {
				t.Fatalf("%s: step %d serves %d keys, want %d", name, step, len(got), len(want))
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e = openT(t, dir, Options{NoCompactor: true, StringKeys: strMode})
		if st := e.Stats(); st.ModelsTrained != 0 || st.Keys != len(want) {
			t.Fatalf("%s: clean reopen: %+v, want nothing trained and %d keys", name, st, len(want))
		}
		e.Close()
	}
}

// TestScrubHealsParentWrittenSegment: a segment file written while segments
// carried Bloom filters (testdata/parent-*) that rots under an open engine
// heals to the image this version writes — its filter slot empty — and the
// directory then reopens with nothing quarantined and serves exactly the
// keys listed in KEYS.
func TestScrubHealsParentWrittenSegment(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		name := map[bool]string{false: "parent-u64", true: "parent-str"}[strMode]
		dir := t.TempDir()
		ents, err := os.ReadDir(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, ent := range ents {
			b, err := os.ReadFile(filepath.Join("testdata", name, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if ent.Name() == "KEYS" {
				want = strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{NoCompactor: true, StringKeys: strMode}
		e := openT(t, dir, opts)
		seg := (*e.segs.Load())[0]
		img, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(filterSlot(t, img)) == 0 {
			t.Fatalf("%s: %s carries no filter", name, filepath.Base(seg.path))
		}
		img[len(img)/2] ^= 0x10
		if err := os.WriteFile(seg.path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, s := range *e.segs.Load() {
			if !s.resident() {
				files++
			}
		}
		if checked, healed, err := e.Scrub(); err != nil || checked != files || healed != 1 {
			t.Fatalf("%s: scrub checked %d, healed %d (err %v), want %d and 1", name, checked, healed, err, files)
		}
		healed, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if current, _ := encodeLiveSegment(seg); !slices.Equal(healed, current) || len(filterSlot(t, healed)) != 0 {
			t.Fatalf("%s: the heal did not write the current image with an empty filter slot", name)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		e = openT(t, dir, opts)
		if q := e.Metrics().Gauge("lix_segments_quarantined"); q != 0 {
			t.Fatalf("%s: %g segments quarantined after the heal", name, q)
		}
		var got []string
		if strMode {
			got = e.KeysStrings()
		} else {
			for _, k := range e.Keys() {
				got = append(got, strconv.FormatUint(k, 10))
			}
			slices.Sort(got) // KEYS lists the decimal forms in string order
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: serves %d keys after the heal, KEYS lists %d", name, len(got), len(want))
		}
		e.Close()
	}
}

// filterSlot returns the filter slot of a segment file image of either
// version.
func filterSlot(t *testing.T, img []byte) []byte {
	t.Helper()
	r, _, err := decodeKeyBlock(img, [8]byte(img[:8]))
	if err != nil {
		t.Fatal(err)
	}
	r.Bytes() // the model
	slot := r.Bytes()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return slot
}
