package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/vfs"
)

// writeSegment is build + commit in one call, for tests that want a
// segment file by hand.
func writeSegment(fs vfs.FS, ignored func(string, error), dir string, seqLo, seqHi uint64, keys []uint64, cfg core.Config) (*segment, error) {
	s := buildSegment(seqLo, seqHi, keys, cfg)
	return s, commitSegment(fs, ignored, dir, s)
}

// writeStringSegment is writeSegment for string keys.
func writeStringSegment(fs vfs.FS, ignored func(string, error), dir string, seqLo, seqHi uint64, keys []string, cfg core.Config) (*segment, error) {
	s, err := buildStringSegment(seqLo, seqHi, keys, cfg)
	if err != nil {
		return nil, err
	}
	return s, commitSegment(fs, ignored, dir, s)
}

// modeEngine drives an engine of either key mode with uint64 keys (strKeysOf
// is their order-preserving string form).
type modeEngine struct {
	*Engine
	str bool
}

func (m modeEngine) append(keys ...uint64) error {
	if m.str {
		return m.AppendStringBatch(strKeysOf(keys))
	}
	return m.AppendBatch(keys)
}

func (m modeEngine) commit(keys ...uint64) error {
	if m.str {
		return m.CommitStringBatch(strKeysOf(keys))
	}
	return m.CommitBatch(keys)
}

func (m modeEngine) has(k uint64) bool {
	if m.str {
		return m.ContainsString(strKeysOf([]uint64{k})[0])
	}
	return m.Contains(k)
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func seqKeys(lo, n int, step uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(lo+i) * step
	}
	return out
}

// TestDrainServesWithoutAFile is the split itself, in both key modes: a
// Drain makes pending keys served — Contains, Len, ranks — by one resident
// run that has no file, leaves the log untrimmed (a crash copy taken there
// reopens with every key), and repeats in place; the Flush after it writes
// resident and pending keys as one file under the next sequence number and
// trims the log; a Drain that would reach the spill size is that Flush.
func TestDrainServesWithoutAFile(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		dir := t.TempDir()
		cfs := newCrashFS(t)
		e := modeEngine{openT(t, dir, Options{NoCompactor: true, StringKeys: strMode, FS: cfs}), strMode}
		base := seqKeys(0, 3000, 8)
		if err := e.append(base...); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		union := slices.Clone(base)
		for round := 0; round < 3; round++ {
			fresh := seqKeys(round*500, 500, 8)
			for i := range fresh {
				fresh[i] += 3
			}
			fresh = append(fresh, base[round], union[len(union)-1]) // served already: by a file, by the run
			if err := e.commit(fresh[:100]...); err != nil {
				t.Fatal(err)
			}
			if err := e.append(fresh[100:]...); err != nil {
				t.Fatal(err)
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			union = dedupSorted(append(union, fresh...))
			slices.Sort(union)
			union = slices.Compact(union)
			st := e.Stats()
			if st.Segments != 2 || st.Drains != round+1 || st.Flushes != 1 || st.PendingKeys != 0 || st.Keys != len(union) {
				t.Fatalf("str=%v drain %d: %+v, want 2 segments serving %d keys", strMode, round, st, len(union))
			}
			if res := residentOf(*e.segs.Load()); res == nil || res.numKeys() != len(union)-len(base) || res.diskBytes != 0 {
				t.Fatalf("str=%v drain %d: resident run %+v", strMode, round, res)
			}
			if n := len(segFiles(t, dir)); n != 1 {
				t.Fatalf("str=%v drain %d: %d segment files, want the base alone", strMode, round, n)
			}
			checkRanks(t, e.Engine, strMode, "drained", union, append(slices.Clone(fresh), 0, 5, ^uint64(0)))
			for _, k := range fresh {
				if !e.has(k) {
					t.Fatalf("str=%v drain %d: key %d not served", strMode, round, k)
				}
			}
			// What a power loss here leaves: the base file and the log.
			crash := t.TempDir()
			if err := cfs.crashCopy(dir, crash, rand.New(rand.NewSource(int64(round)))); err != nil {
				t.Fatal(err)
			}
			re := modeEngine{openT(t, crash, Options{NoCompactor: true, StringKeys: strMode}), strMode}
			if re.Len() != len(union) {
				t.Fatalf("str=%v drain %d: crash copy reopens with %d keys, want %d", strMode, round, re.Len(), len(union))
			}
			re.Close()
		}
		walBefore := e.Stats().WALBytes
		if walBefore == 0 {
			t.Fatalf("str=%v: drains trimmed the log, the resident run's only durable home", strMode)
		}
		if err := e.Flush(); err != nil { // nothing pending: the resident run alone spills
			t.Fatal(err)
		}
		st := e.Stats()
		if st.Segments != 2 || st.Flushes != 2 || st.WALBytes != 0 || st.Keys != len(union) || residentOf(*e.segs.Load()) != nil {
			t.Fatalf("str=%v after the spill: %+v", strMode, st)
		}
		if files := segFiles(t, dir); len(files) != 2 || filepath.Base(files[1]) != segmentFileName(1, 1) {
			t.Fatalf("str=%v: spill wrote %v", strMode, files)
		}
		checkRanks(t, e.Engine, strMode, "spilled", union, []uint64{0, 3, 8, 11, 4003, ^uint64(0)})

		// A drain that would take the run to the spill size is a flush.
		big := seqKeys(0, spillKeys, 8)
		for i := range big {
			big[i] += 5
		}
		if err := e.append(big...); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Flushes != 3 || st.Drains != 3 || st.Segments != 3 || residentOf(*e.segs.Load()) != nil || st.WALBytes != 0 {
			t.Fatalf("str=%v after a spill-sized drain: %+v", strMode, st)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainDuplicateStreamRotatesTheLog: the spill is decided on what the
// log holds, not on what the resident run holds. A stream of keys that are
// all served already (retries, a re-sync) dedupes to nothing, so the run
// never grows — the log must still rotate every spillKeys keys, or it, and
// the replay a crash pays, grow without bound.
func TestDrainDuplicateStreamRotatesTheLog(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		dir := t.TempDir()
		e := modeEngine{openT(t, dir, Options{NoCompactor: true, StringKeys: strMode}), strMode}
		base := seqKeys(0, 4096, 8)
		if err := e.append(base...); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		const rounds = 3 * spillKeys / 4096
		var maxWAL, perDrain int64
		firstLog := e.walSeq
		for i := 0; i < rounds; i++ {
			if err := e.commit(base...); err != nil {
				t.Fatal(err)
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if i == 0 {
				perDrain = st.WALBytes
			}
			maxWAL = max(maxWAL, st.WALBytes)
			if st.Keys != len(base) || st.Segments != 1 || st.PendingKeys != 0 {
				t.Fatalf("str=%v round %d: %+v, want the base file alone", strMode, i, st)
			}
		}
		if perDrain == 0 {
			t.Fatalf("str=%v: a drain left nothing in the log", strMode)
		}
		if bound := perDrain * (spillKeys / 4096); maxWAL > bound {
			t.Fatalf("str=%v: log grew to %d bytes over %d duplicate keys, want <= %d (spillKeys keys)", strMode, maxWAL, rounds*4096, bound)
		}
		if got := e.walSeq - firstLog; got != 3 {
			t.Fatalf("str=%v: %d log rotations over 3x spillKeys duplicate keys, want 3", strMode, got)
		}
		if logs, _ := filepath.Glob(filepath.Join(dir, "wal*.log")); len(logs) != 1 {
			t.Fatalf("str=%v: frozen logs left behind: %v", strMode, logs)
		}
		// A Flush with nothing pending and no resident run still trims a log
		// that holds drained frames.
		if err := e.commit(base[:10]...); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.WALBytes != 0 || st.Segments != 1 {
			t.Fatalf("str=%v after the final Flush: %+v", strMode, st)
		}
		if n := len(segFiles(t, dir)); n != 1 {
			t.Fatalf("str=%v: %d segment files, want the base alone", strMode, n)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainBarrierServesOnlyDurableKeys: served ⊆ durable. A key that only
// Append logged must not be readable before the fsync that covers it — the
// drain runs the group-commit barrier between freeze and publication (this
// fails if the barrier is removed: the drain then publishes with no fsync
// at all) — and keys that all arrived through Commit cost a drain no fsync.
func TestDrainBarrierServesOnlyDurableKeys(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
		e := modeEngine{openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode, FS: ffs}), strMode}
		var syncs, servedEarly atomic.Int32
		ffs.SetHook(func(op vfs.Op, path string) error {
			if op == vfs.OpSync && strings.HasPrefix(filepath.Base(path), "wal") {
				syncs.Add(1)
				if e.has(42) {
					servedEarly.Add(1)
				}
			}
			return nil
		})
		if err := e.commit(1, 2, 3); err != nil {
			t.Fatal(err)
		}
		before := syncs.Load()
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if !e.has(2) || syncs.Load() != before {
			t.Fatalf("str=%v: draining committed keys: served=%v, %d fsyncs", strMode, e.has(2), syncs.Load()-before)
		}
		if err := e.append(42); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if !e.has(42) || syncs.Load() != before+1 || servedEarly.Load() != 0 {
			t.Fatalf("str=%v: draining an appended key: served=%v after %d fsyncs, readable before its fsync %d times",
				strMode, e.has(42), syncs.Load()-before, servedEarly.Load())
		}
		// A barrier that fails poisons, as any commit-plane fsync does, and
		// the frozen keys are not served; scans still see them.
		ffs.SetHook(func(op vfs.Op, path string) error {
			if op == vfs.OpSync {
				return syscall.EIO
			}
			return nil
		})
		if err := e.append(77); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("str=%v: drain over a failing fsync = %v, want ErrPoisoned", strMode, err)
		}
		if e.has(77) {
			t.Fatalf("str=%v: key served by a drain whose barrier failed", strMode)
		}
		if n := e.Len(); n != 4 {
			t.Fatalf("str=%v: %d keys served after the failed barrier, want 4", strMode, n)
		}
		ffs.SetHook(nil)
		e.Close()
	}
}

// TestDrainAndSpillDuringCompactionKeepTheSplice parks a compaction of the
// two oldest segments just before its replacement is renamed into place
// and, while it waits, replaces the resident run at the tail (a drain),
// swaps it for a file (a spill) and grows a new one (a drain). The
// compaction then splices by the index it picked its run at: the list must
// come out as merged run, spilled file, resident run, serving exactly the
// union with exact ranks, and no compaction may pick the resident run.
func TestDrainAndSpillDuringCompactionKeepTheSplice(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
		dir := t.TempDir()
		e := modeEngine{openT(t, dir, Options{NoCompactor: true, CompactFanout: 2, StringKeys: strMode, FS: ffs}), strMode}
		var union []uint64
		add := func(off uint64, publish func() error) {
			t.Helper()
			keys := seqKeys(0, 1500, 16)
			for i := range keys {
				keys[i] += off
			}
			union = append(union, keys...)
			if err := e.append(keys...); err != nil {
				t.Fatal(err)
			}
			if err := publish(); err != nil {
				t.Fatal(err)
			}
		}
		add(0, e.Flush)
		add(1, e.Flush)
		add(2, e.Drain) // [A, B, resident]

		reached, release := make(chan struct{}), make(chan struct{})
		merged := segmentFileName(0, 1)
		ffs.SetHook(func(op vfs.Op, path string) error {
			if op == vfs.OpRename && filepath.Base(path) == merged+".tmp" {
				close(reached)
				<-release
			}
			return nil
		})
		done := make(chan error, 1)
		go func() { done <- e.Compact() }()
		select {
		case <-reached:
		case <-time.After(30 * time.Second):
			t.Fatal("the compaction never got to its rename")
		}
		add(3, e.Drain) // replaces the tail
		add(4, e.Flush) // swaps it for seg 2-2
		add(5, e.Drain) // a new tail behind the file
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		ffs.SetHook(nil)

		// Files tiling sequences 0..2 (Compact runs to quiescence: whether the
		// merged run and the spilled file merge again is up to their sizes),
		// then the resident run.
		segs := *e.segs.Load()
		next := uint64(0)
		for _, s := range segs[:len(segs)-1] {
			if s.resident() || s.seqLo != next {
				t.Fatalf("str=%v: list after the splice: segment %s (file %q) where sequence %d was due", strMode, s.name(), s.path, next)
			}
			next = s.seqHi + 1
		}
		if next != 3 || residentOf(segs) == nil || e.Stats().Compactions == 0 {
			t.Fatalf("str=%v: list after the splice ends at sequence %d, resident run %v, %d compactions",
				strMode, next, residentOf(segs) != nil, e.Stats().Compactions)
		}
		slices.Sort(union)
		if e.Len() != len(union) {
			t.Fatalf("str=%v: %d keys served, want %d", strMode, e.Len(), len(union))
		}
		probes := append(seqKeys(0, 600, 41), 0, ^uint64(0))
		checkRanks(t, e.Engine, strMode, "spliced", union, probes)
		if start, n := pickRun(segs, 2); n != 0 && start+n == len(segs) {
			t.Fatalf("str=%v: pickRun(%d, %d) takes the resident run", strMode, start, n)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		re := modeEngine{openT(t, dir, Options{NoCompactor: true, StringKeys: strMode}), strMode}
		if st := re.Stats(); st.Keys != len(union) || st.ModelsTrained != 0 {
			t.Fatalf("str=%v: reopen after Close: %+v, want %d keys and nothing trained", strMode, st, len(union))
		}
		re.Close()
	}
}

// TestSnapshotOfResidentRunReleasesWithoutFilesystem: a snapshot pins the
// resident run like any segment; three later drains replace the run, the
// pinned view keeps streaming exactly what it captured, and releasing it
// touches no file — the run never had one, so it is nobody's zombie.
func TestSnapshotOfResidentRunReleasesWithoutFilesystem(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	e := openT(t, t.TempDir(), Options{NoCompactor: true, FS: ffs})
	defer e.Close()
	var all []uint64
	drain := func(round int) {
		keys := seqKeys(round*1000, 1000, 3)
		all = append(all, keys...)
		if err := e.AppendBatch(keys); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	drain(0)
	sn := pinAll[uint64](e)
	pinned := residentOf(sn.segs)
	if pinned == nil || pinned.pins.Load() != 1 {
		t.Fatalf("snapshot did not pin the resident run: %+v", pinned)
	}
	want := slices.Clone(all)
	for round := 1; round <= 3; round++ {
		drain(round)
	}
	if cur := residentOf(*e.segs.Load()); cur == pinned || cur.numKeys() != 4000 {
		t.Fatalf("three drains left the resident run at %d keys", cur.numKeys())
	}
	if got := drainSnapshot(sn, &u64Ops, 0, ^uint64(0), true); !slices.Equal(got, want) {
		t.Fatalf("pinned view streams %d keys, captured %d", len(got), len(want))
	}
	var ops atomic.Int32
	ffs.SetHook(func(vfs.Op, string) error { ops.Add(1); return nil })
	sn.release()
	ffs.SetHook(nil)
	if ops.Load() != 0 || pinned.pins.Load() != 0 || pinned.zombie || e.m.zombies.Load() != 0 {
		t.Fatalf("release of a replaced resident run: %d file operations, pins=%d zombie=%v zombies=%d",
			ops.Load(), pinned.pins.Load(), pinned.zombie, e.m.zombies.Load())
	}
	if checked, healed, err := e.Scrub(); checked != 0 || healed != 0 || err != nil {
		t.Fatalf("scrub of a list that is one resident run: checked=%d healed=%d err=%v", checked, healed, err)
	}
}

// TestDrainSpillENOSPCDegrades: a drain that reaches the spill size and
// cannot write its file fails the way a flush does — read-only, the
// resident run still served, the frozen keys on the scan plane, the log
// kept — and a reopen serves everything.
func TestDrainSpillENOSPCDegrades(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	e := openT(t, dir, Options{NoCompactor: true, FS: ffs})
	if err := e.CommitBatch(seqKeys(0, 1000, 4)); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	big := seqKeys(0, spillKeys, 4)
	for i := range big {
		big[i]++
	}
	if err := e.CommitBatch(big); err != nil {
		t.Fatal(err)
	}
	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpWrite && strings.HasPrefix(filepath.Base(path), "seg-") {
			return syscall.ENOSPC
		}
		return nil
	})
	if err := e.Drain(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("spilling drain on a full disk = %v, want ENOSPC", err)
	}
	if h, cause := e.Health(); h != HealthDegraded || !errors.Is(cause, ErrDegraded) {
		t.Fatalf("health = %v (%v), want degraded", h, cause)
	}
	if err := e.Drain(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("drain on a degraded engine = %v, want ErrDegraded", err)
	}
	if !e.Contains(4) || e.Len() != 1000 {
		t.Fatalf("the resident run stopped serving: Len=%d", e.Len())
	}
	if got := e.CountRange(0, ^uint64(0), true); got != 1000+spillKeys {
		t.Fatalf("degraded engine shows %d keys on the scan plane, want %d", got, 1000+spillKeys)
	}
	ffs.SetHook(nil)
	e.Close()
	if n := len(segFiles(t, dir)); n != 0 {
		t.Fatalf("%d segment files after a spill that failed", n)
	}
	re := openT(t, dir, Options{NoCompactor: true})
	defer re.Close()
	if re.Len() != 1000+spillKeys {
		t.Fatalf("reopen serves %d keys, want %d", re.Len(), 1000+spillKeys)
	}
}

// checkSpilledFileIsOneStepWrite: the file a spill writes — after drains
// that built the run in steps, with duplicates on the way — is byte for byte
// what build + commit of the final key set writes in one go, in both key
// modes (the last leg of TestSegmentImageBytesUnchanged).
func checkSpilledFileIsOneStepWrite(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		dir := t.TempDir()
		e := modeEngine{openT(t, dir, Options{NoCompactor: true, StringKeys: strMode}), strMode}
		var all []uint64
		for round := 0; round < 4; round++ {
			keys := seqKeys(0, 700, uint64(3+round)) // overlapping multiples
			all = append(all, keys...)
			if err := e.append(keys...); err != nil {
				t.Fatal(err)
			}
			if round < 3 {
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		slices.Sort(all)
		all = slices.Compact(all)
		ref := t.TempDir()
		var err error
		if strMode {
			_, err = writeStringSegment(vfs.OS, nil, ref, 0, 0, strKeysOf(all), e.opts.Config)
		} else {
			_, err = writeSegment(vfs.OS, nil, ref, 0, 0, all, e.opts.Config)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err1 := os.ReadFile(filepath.Join(dir, segmentFileName(0, 0)))
		want, err2 := os.ReadFile(filepath.Join(ref, segmentFileName(0, 0)))
		if err1 != nil || err2 != nil || !slices.Equal(got, want) {
			t.Fatalf("str=%v: spilled file (%d bytes, %v) differs from the one-step write (%d bytes, %v)",
				strMode, len(got), err1, len(want), err2)
		}
		e.Close()
	}
}

// TestEngineDrainsAtDrainKeys, in both key modes: on an engine opened with
// DrainKeys, an append or a commit that leaves that many keys pending is
// served with no Drain call; without DrainKeys the keys stay pending until
// Drain; and Close, right after a wake, stops the drainer before its final
// flush — a later Append is refused and a reopen serves every key.
func TestEngineDrainsAtDrainKeys(t *testing.T) {
	const drainKeys = 100
	for _, strMode := range []bool{false, true} {
		e := modeEngine{openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode, DrainKeys: drainKeys}), strMode}
		served := func(what string, keys []uint64) {
			t.Helper()
			deadline := time.Now().Add(10 * time.Second)
			for e.PendingLen() > 0 || !e.has(keys[len(keys)-1]) {
				if time.Now().After(deadline) {
					t.Fatalf("str=%v: %s: %d keys pending, %d served after 10s", strMode, what, e.PendingLen(), e.Len())
				}
				time.Sleep(time.Millisecond)
			}
			for _, k := range keys {
				if !e.has(k) {
					t.Fatalf("str=%v: %s: key %d not served", strMode, what, k)
				}
			}
		}
		appended := seqKeys(0, drainKeys, 2)
		if err := e.append(appended...); err != nil {
			t.Fatal(err)
		}
		served("appends", appended)
		committed := seqKeys(0, drainKeys, 3)
		for i := range committed {
			committed[i] = committed[i]*2 + 1
		}
		if err := e.commit(committed[:drainKeys/2]...); err != nil {
			t.Fatal(err)
		}
		if err := e.commit(committed[drainKeys/2:]...); err != nil {
			t.Fatal(err)
		}
		served("commits", committed)
		if st := e.Stats(); st.Keys != 2*drainKeys || st.Drains < 2 || st.Flushes != 0 {
			t.Fatalf("str=%v after the drainer: %+v, want %d keys in a resident run, no file", strMode, st, 2*drainKeys)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		// Without DrainKeys there is no drainer: the keys wait for Drain.
		bare := modeEngine{openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode}), strMode}
		if err := bare.append(appended...); err != nil {
			t.Fatal(err)
		}
		if err := bare.commit(committed...); err != nil {
			t.Fatal(err)
		}
		if n, p := bare.Len(), bare.PendingLen(); n != 0 || p != 2*drainKeys {
			t.Fatalf("str=%v, no DrainKeys: %d served, %d pending, want 0 and %d", strMode, n, p, 2*drainKeys)
		}
		if err := bare.Drain(); err != nil {
			t.Fatal(err)
		}
		if n := bare.Len(); n != 2*drainKeys {
			t.Fatalf("str=%v, no DrainKeys: Drain served %d keys, want %d", strMode, n, 2*drainKeys)
		}
		if err := bare.Close(); err != nil {
			t.Fatal(err)
		}

		// Close right after a wake.
		dir := t.TempDir()
		c := modeEngine{openT(t, dir, Options{NoCompactor: true, StringKeys: strMode, DrainKeys: drainKeys}), strMode}
		if err := c.append(appended...); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.append(1); err == nil {
			t.Fatalf("str=%v: Append after Close was accepted", strMode)
		}
		re := openT(t, dir, Options{NoCompactor: true, StringKeys: strMode})
		if n := re.Len(); n != drainKeys {
			t.Fatalf("str=%v: reopen after Close serves %d keys, want %d", strMode, n, drainKeys)
		}
		re.Close()
	}
}
