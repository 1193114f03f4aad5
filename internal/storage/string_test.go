package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// stringTestKeys builds a deterministic mixed-shape key set: URL-ish long
// keys sharing hot prefixes (prefix collisions), short keys, and keys with
// embedded NUL bytes.
func stringTestKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	hosts := []string{"example.com", "api.example.com", "cdn.net", "a.io"}
	set := map[string]struct{}{}
	for len(set) < n {
		switch rng.Intn(4) {
		case 0:
			set[fmt.Sprintf("https://%s/path/%d/item-%d", hosts[rng.Intn(len(hosts))], rng.Intn(100), rng.Intn(1_000_000))] = struct{}{}
		case 1:
			set[fmt.Sprintf("k%07d", rng.Intn(2_000_000))] = struct{}{}
		case 2:
			set[fmt.Sprintf("x\x00%c%d", byte('a'+rng.Intn(26)), rng.Intn(10_000))] = struct{}{}
		default:
			b := make([]byte, 1+rng.Intn(20))
			for i := range b {
				b[i] = byte(rng.Intn(256))
			}
			set[string(b)] = struct{}{}
		}
	}
	out := make([]string, 0, n)
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestStringEngineLifecycle(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{StringKeys: true})
	keys := stringTestKeys(20_000, 1)
	shuffled := slices.Clone(keys)
	rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if err := e.AppendStringBatch(shuffled); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 {
		t.Fatalf("unflushed keys already served: Len=%d", e.Len())
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != len(keys) {
		t.Fatalf("Len=%d, want %d", e.Len(), len(keys))
	}
	if got := e.KeysStrings(); !slices.Equal(got, keys) {
		t.Fatal("KeysStrings disagrees with the inserted set")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		k := keys[rng.Intn(len(keys))]
		if !e.ContainsString(k) {
			t.Fatalf("lost key %q", k)
		}
		for _, m := range []string{k + "\x00", k + "~", k[:len(k)-1]} {
			want := sort.SearchStrings(keys, m)
			if got := e.LookupString(m); got != want {
				t.Fatalf("LookupString(%q)=%d, want %d", m, got, want)
			}
			if e.ContainsString(m) != (want < len(keys) && keys[want] == m) {
				t.Fatalf("ContainsString(%q) wrong", m)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold open: the v2 segment deserializes (no training) and serves the
	// same answers.
	e2 := openT(t, dir, Options{StringKeys: true})
	defer e2.Close()
	if st := e2.Stats(); st.ModelsLoaded != st.Segments || st.ModelsTrained != 0 {
		t.Fatalf("cold open trained models: %+v", st)
	}
	if e2.Len() != len(keys) {
		t.Fatalf("after reopen Len=%d, want %d", e2.Len(), len(keys))
	}
	for i := 0; i < 2000; i++ {
		k := keys[rng.Intn(len(keys))]
		if !e2.ContainsString(k) {
			t.Fatalf("reopen lost key %q", k)
		}
	}
}

// TestStringEngineCrashRecovery commits string keys without flushing, then
// "crashes" by copying the directory image (files as they exist on disk)
// and opening the copy — every committed key must be recovered from the
// string WAL, including when the log has a torn tail appended.
func TestStringEngineCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{StringKeys: true, NoCompactor: true})
	flushed := stringTestKeys(5_000, 10)
	if err := e.AppendStringBatch(flushed); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	committed := stringTestKeys(2_000, 11)
	if err := e.CommitStringBatch(committed); err != nil {
		t.Fatal(err)
	}

	for _, torn := range []bool{false, true} {
		crashDir := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if torn && len(data) > 0 {
				if _, ok := parseWALStrFileName(ent.Name()); ok {
					data = append(data, []byte("torn-garbage\x01\x02")...)
				}
			}
			if err := os.WriteFile(filepath.Join(crashDir, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r := openT(t, crashDir, Options{StringKeys: true, NoCompactor: true})
		union := map[string]struct{}{}
		for _, k := range flushed {
			union[k] = struct{}{}
		}
		for _, k := range committed {
			union[k] = struct{}{}
		}
		if r.Len() != len(union) {
			t.Fatalf("torn=%v: recovered Len=%d, want %d", torn, r.Len(), len(union))
		}
		for k := range union {
			if !r.ContainsString(k) {
				t.Fatalf("torn=%v: lost durable key %q", torn, k)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
}

func TestStringEngineCompaction(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{StringKeys: true, NoCompactor: true, CompactFanout: 2})
	all := stringTestKeys(8_000, 20)
	shuffled := slices.Clone(all)
	rand.New(rand.NewSource(21)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	const batches = 8
	per := len(shuffled) / batches
	for b := 0; b < batches; b++ {
		if err := e.AppendStringBatch(shuffled[b*per : (b+1)*per]); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats().Segments
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Segments >= before {
		t.Fatalf("compaction did not shrink the list: %d -> %d", before, after.Segments)
	}
	if got := e.KeysStrings(); !slices.Equal(got, all) {
		t.Fatalf("compaction changed the key set: got %d keys, want %d", len(got), len(all))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Survives a reopen: compacted v2 segments decode.
	e2 := openT(t, dir, Options{StringKeys: true, NoCompactor: true})
	defer e2.Close()
	if e2.Len() != len(all) {
		t.Fatalf("reopen after compaction Len=%d, want %d", e2.Len(), len(all))
	}
}

// TestEngineModeMismatch locks in the one-directory-one-mode contract:
// Open refuses the other mode's directory (segments or WAL), and calling
// the wrong mode's methods panics.
func TestEngineModeMismatch(t *testing.T) {
	// uint64 directory with a flushed segment, reopened as string.
	dirU := t.TempDir()
	eu := openT(t, dirU, Options{})
	eu.Append(1, 2, 3)
	if err := eu.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eu.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dirU, Options{StringKeys: true}); err == nil {
		t.Fatal("string open of a uint64 segment directory succeeded")
	}

	// String directory with only WAL frames (no flush), reopened as uint64.
	dirS := t.TempDir()
	es := openT(t, dirS, Options{StringKeys: true})
	if err := es.CommitString("a", "b"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: copy the live WAL file to a fresh dir (Close would
	// flush it into a segment).
	crashDir := t.TempDir()
	ents, _ := os.ReadDir(dirS)
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dirS, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(crashDir, ent.Name()), data, 0o644)
	}
	if _, err := Open(crashDir, Options{}); err == nil {
		t.Fatal("uint64 open of a string WAL directory succeeded")
	}
	es.Close()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	eu2 := openT(t, t.TempDir(), Options{})
	defer eu2.Close()
	mustPanic("AppendString", func() { eu2.AppendString("x") })
	mustPanic("CommitString", func() { eu2.CommitString("x") })
	mustPanic("ContainsString", func() { eu2.ContainsString("x") })
	mustPanic("LookupString", func() { eu2.LookupString("x") })
	mustPanic("KeysStrings", func() { eu2.KeysStrings() })
	es2 := openT(t, t.TempDir(), Options{StringKeys: true})
	defer es2.Close()
	mustPanic("Append", func() { es2.Append(1) })
	mustPanic("Commit", func() { es2.Commit(1) })
	mustPanic("Contains", func() { es2.Contains(1) })
	mustPanic("Lookup", func() { es2.Lookup(1) })
	mustPanic("Keys", func() { es2.Keys() })
}

// TestStringSnapshotCountRange cross-checks the codec-index COUNT against
// a flat oracle, over flushed segments plus an unflushed delta, bounded
// and unbounded.
func TestStringSnapshotCountRange(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{StringKeys: true, NoCompactor: true})
	defer e.Close()
	keys := stringTestKeys(6_000, 30)
	if err := e.AppendStringBatch(keys[:4_000]); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendStringBatch(keys[4_000:]); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		a := sorted[rng.Intn(len(sorted))]
		b := sorted[rng.Intn(len(sorted))]
		lo, hi := min(a, b), max(a, b)
		want := sort.SearchStrings(sorted, hi) - sort.SearchStrings(sorted, lo)
		if got := e.CountRangeStr(lo, hi, true); got != want {
			t.Fatalf("CountRangeStr(%q,%q)=%d, want %d", lo, hi, got, want)
		}
		wantOpen := len(sorted) - sort.SearchStrings(sorted, lo)
		if got := e.CountRangeStr(lo, "", false); got != wantOpen {
			t.Fatalf("CountRangeStr(%q,∞)=%d, want %d", lo, got, wantOpen)
		}
	}
}

// FuzzWALStringReplay feeds arbitrary bytes to the string WAL replayer:
// it must never panic, re-encoding whatever it recovered must be a
// prefix-consistent interpretation (keys from intact frames only), and an
// all-zero header — the never-written rest of a reserved log — ends the log
// whatever follows it. The seeds come from the real writer, which is held to
// its logical size on the way: replaying its whole file, reserved tail
// included, stops exactly there with exactly the keys written.
func FuzzWALStringReplay(f *testing.F) {
	image := func(recs ...[]string) []byte {
		w := newWALT(f, filepath.Join(f.TempDir(), walStrFileName(0)))
		var want []string
		for _, rec := range recs {
			if err := w.appendStrings(rec); err != nil {
				f.Fatal(err)
			}
			want = append(want, rec...)
		}
		if err := w.sync(); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(w.path)
		w.close()
		if err != nil {
			f.Fatal(err)
		}
		if keys, good := replayWALStrings(img); good != w.size || !slices.Equal(keys, want) {
			f.Fatalf("replay of the writer's %d-byte file stopped at %d with %d keys, want %d with %d",
				len(img), good, len(keys), w.size, len(want))
		}
		return img[:w.size]
	}
	small := image([]string{"alpha", "", "x\x00y"}, []string{"beta"})
	zeros := make([]byte, 64)
	long := make([]string, walExtent/100+1) // one record across the extent boundary
	for i := range long {
		long[i] = fmt.Sprintf("%0100d", i)
	}
	f.Add(small)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Add(append(slices.Clone(small), zeros...))                   // a zero tail
	f.Add(append(append(slices.Clone(small), zeros...), small...)) // well-formed frames after a zero tail
	f.Add(image([]string{"alpha"}, long, []string{"omega"}))       // a frame that straddles an extent boundary
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, good := replayWALStrings(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range", good)
		}
		// Replaying the intact prefix must yield the same keys.
		again, g2 := replayWALStrings(data[:good])
		if g2 != good || !slices.Equal(keys, again) {
			t.Fatal("replay of the intact prefix disagrees")
		}
		// A zero header where replay stopped hides whatever follows it.
		hidden := append(append(slices.Clone(data[:good]), make([]byte, walHeaderLen)...), small...)
		if again, g2 = replayWALStrings(hidden); g2 != good || !slices.Equal(keys, again) {
			t.Fatalf("replay read past a zero header: stopped at %d with %d keys, want %d with %d", g2, len(again), good, len(keys))
		}
	})
}
