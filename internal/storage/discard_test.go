package storage

import (
	"errors"
	"os"
	"slices"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/vfs"
)

// TestEngineOnDiscard runs every write path of the engine on a filesystem
// that keeps nothing — a bulk load, appends, commits, a drain, a spill, a
// Flush and a compaction, in both key modes — and checks that it serves
// exactly the inserted set from memory. Its Scrub has no file to read back:
// it reports vfs.ErrDiscarded and heals nothing.
func TestEngineOnDiscard(t *testing.T) {
	modes(t, func(t *testing.T, str bool) {
		e := openT(t, "", Options{FS: vfs.Discard, StringKeys: str, NoCompactor: true, CompactFanout: 2})
		all := data.Uniform(3*spillKeys, 1<<50, 71)
		base, appended, committed, spilled := all[:5000], all[5000:9000], all[9000:12000], all[12000:]
		var want []uint64
		write := func(keys []uint64, durable bool) {
			t.Helper()
			var err error
			switch {
			case str && durable:
				err = e.CommitStringBatch(strKeysOf(keys))
			case str:
				err = e.AppendStringBatch(strKeysOf(keys))
			case durable:
				err = e.CommitBatch(keys)
			default:
				err = e.AppendBatch(keys)
			}
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, keys...)
		}
		check := func(stage string) {
			t.Helper()
			w := slices.Clone(want)
			slices.Sort(w)
			w = dedupSorted(w)
			if got := servedT(e); !slices.Equal(got, strKeysOf(w)) {
				t.Fatalf("%s: serves %d keys, want %d", stage, len(got), len(w))
			}
		}

		if err := bulkLoadT(e, base); err != nil {
			t.Fatal(err)
		}
		want = append(want, base...)
		check("bulk load")
		write(appended, false)
		write(committed, true)
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Drains != 1 || st.Flushes != 1 {
			t.Fatalf("after one drain: %d drains, %d flushes", st.Drains, st.Flushes)
		}
		check("drain")
		write(spilled[:spillKeys], false)
		if err := e.Drain(); err != nil { // spillKeys keys in the log: a spill
			t.Fatal(err)
		}
		if st := e.Stats(); st.Flushes != 2 {
			t.Fatalf("a drain over spillKeys logged keys wrote %d segments, want a spill", st.Flushes-1)
		}
		check("spill")
		// Two flushes of one size class, the compaction's input.
		rest := spilled[spillKeys:]
		write(rest[:len(rest)/2], true)
		write(base[:100], false) // re-inserts of served keys are absorbed
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		check("flush")
		write(rest[len(rest)/2:], true)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Compactions == 0 || st.PendingKeys != 0 || st.DiskBytes == 0 {
			t.Fatalf("no compaction ran or keys left pending: %+v", st)
		}
		check("compaction")

		checked, healed, err := e.Scrub()
		if !errors.Is(err, vfs.ErrDiscarded) || checked != 0 || healed != 0 {
			t.Fatalf("Scrub = %d checked, %d healed, %v; want ErrDiscarded and nothing healed", checked, healed, err)
		}
		if h, herr := e.Health(); h != HealthOK || herr != nil {
			t.Fatalf("health %v, %v after a scrub on Discard", h, herr)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDiscardSizesSegmentsLikeTheirFiles: on Discard a segment is measured,
// not encoded, and the measure is the size of the file the real filesystem
// gets — compaction tiers an in-memory store by the same sizes.
func TestDiscardSizesSegmentsLikeTheirFiles(t *testing.T) {
	dir := t.TempDir()
	for i, keys := range [][]uint64{{7}, dedupSorted(data.LognormalPaper(20_000, 72)), data.Uniform(50_000, 1<<60, 73)} {
		strs := strKeysOf(keys)
		disk, err := writeSegment(vfs.OS, nil, dir, uint64(2*i), uint64(2*i), keys, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mem, err := writeSegment(vfs.Discard, nil, dir, 100, 100, keys, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sdisk, err := writeStringSegment(vfs.OS, nil, dir, uint64(2*i+1), uint64(2*i+1), strs, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		smem, err := writeStringSegment(vfs.Discard, nil, dir, 101, 101, strs, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*segment{{disk, mem}, {sdisk, smem}} {
			fi, err := os.Stat(pair[0].path)
			if err != nil {
				t.Fatal(err)
			}
			if pair[0].diskBytes != fi.Size() || pair[1].diskBytes != fi.Size() || pair[1].resident() {
				t.Fatalf("%d keys: file %d bytes, sized %d on the OS and %d on Discard", len(keys), fi.Size(), pair[0].diskBytes, pair[1].diskBytes)
			}
		}
	}
}
