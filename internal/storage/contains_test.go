package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"learnedindex/internal/binenc"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/obs"
	"learnedindex/internal/vfs"
)

// kernelEngine builds an engine whose segment list exercises every branch
// of the kernel: overlapping fences, disjoint fences, a compacted run and
// stragglers. Returns every served key.
func kernelEngine(t *testing.T, strMode bool) (*Engine, []uint64) {
	t.Helper()
	e := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode})
	t.Cleanup(func() { e.Close() })
	var all []uint64
	flush := func(keys []uint64) {
		all = append(all, keys...)
		var err error
		if strMode {
			err = e.AppendStringBatch(strKeysOf(keys))
		} else {
			err = e.AppendBatch(keys)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Keys are multiples of 4 so that k+1 never exists.
	wide := data.Uniform(6000, 1<<40, 11)
	for i := range wide {
		wide[i] &^= 3
	}
	wide = dedupSorted(wide)
	for i := 0; i < 5; i++ { // five interleaved runs over the whole range
		var part []uint64
		for j := i; j < len(wide); j += 5 {
			part = append(part, wide[j])
		}
		flush(part)
	}
	if err := e.Compact(); err != nil { // merges four of them
		t.Fatal(err)
	}
	flush([]uint64{1 << 50, 1<<50 + 4, 1<<50 + 8}) // a fence nothing else overlaps
	flush([]uint64{wide[0] + 4<<41})               // a one-key straggler
	if e.Stats().Compactions == 0 || e.Stats().Segments < 3 {
		t.Fatalf("setup: %+v", e.Stats())
	}
	return e, all
}

// TestContainsBatchMatchesScalar is the kernel's differential test: the
// batch answer equals the per-key answer equals the set of keys flushed,
// for duplicates, probes outside every fence, all-hit and all-miss batches,
// batches longer than the kernel's chunk, and an engine with no segment.
func TestContainsBatchMatchesScalar(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		e, all := kernelEngine(t, strMode)
		served := map[uint64]bool{}
		for _, k := range all {
			served[k] = true
		}
		rng := rand.New(rand.NewSource(5))
		hits := func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = all[rng.Intn(len(all))]
			}
			return out
		}
		misses := func(n int) []uint64 { // inside the fences, never inserted
			out := hits(n)
			for i := range out {
				out[i]++
			}
			return out
		}
		mixed := append(hits(3*containsChunk), misses(3*containsChunk+17)...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		cases := map[string][]uint64{
			"empty batch":       {},
			"single hit":        hits(1),
			"single miss":       misses(1),
			"all hit":           hits(64),
			"all miss":          misses(64),
			"duplicates":        append(repeat(hits(1)[0], 40), repeat(misses(1)[0], 40)...),
			"outside fences":    {0, 1, 2, 1 << 49, 1<<50 + 12, 1 << 62, ^uint64(0)},
			"exactly one chunk": hits(containsChunk),
			"over the chunk":    mixed,
		}
		for name, probes := range cases {
			got := repeat(true, len(probes)) // stale answers must be overwritten
			count := 0
			if strMode {
				sp := strKeysOf(probes)
				e.ContainsBatchString(sp, got)
				count = containsBatchIn(*e.segs.Load(), &strOps, sp, nil)
			} else {
				e.ContainsBatch(probes, got)
				count = containsBatchIn(*e.segs.Load(), &u64Ops, probes, nil)
			}
			want := 0
			for i, k := range probes {
				scalar := false
				if strMode {
					scalar = e.ContainsString(strKeysOf(probes[i : i+1])[0])
				} else {
					scalar = e.Contains(k)
				}
				if got[i] != served[k] || scalar != served[k] {
					t.Fatalf("str=%v %s: probe %d (%d): batch=%v scalar=%v, served=%v", strMode, name, i, k, got[i], scalar, served[k])
				}
				if served[k] {
					want++
				}
			}
			if count != want {
				t.Fatalf("str=%v %s: kernel counted %d hits, want %d", strMode, name, count, want)
			}
		}

		empty := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: strMode})
		got := []bool{true, true}
		if strMode {
			empty.ContainsBatchString([]string{"a", "b"}, got)
		} else {
			empty.ContainsBatch([]uint64{1, 2}, got)
		}
		if got[0] || got[1] {
			t.Fatalf("str=%v: an engine with no segment claims keys", strMode)
		}
		empty.Close()
	}
}

// TestContainsBatchFunnelCounts pins the meaning of the per-segment Bloom
// funnel now that it is added once per segment per batch: a probe counts
// against every segment whose fence it passes until the first hit, newest
// segment first — exactly what the per-key walk counted.
func TestContainsBatchFunnelCounts(t *testing.T) {
	if !obs.Enabled {
		t.Skip("funnel counters are compiled out")
	}
	e, all := kernelEngine(t, false)
	probes := append(slices.Clone(all[:700]), all[:700]...)
	for i := 700; i < len(probes); i++ {
		probes[i]++ // misses inside the fences
	}
	segs := *e.segs.Load()
	type funnel struct{ probes, pass, hits uint64 }
	want := make([]funnel, len(segs))
	for _, k := range probes {
		for i := len(segs) - 1; i >= 0; i-- {
			s := segs[i]
			if k < s.minKey() || k > s.maxKey() {
				continue
			}
			want[i].probes++
			if !s.filter.MayContainUint64(k) {
				continue
			}
			want[i].pass++
			if s.plan.Contains(k) {
				want[i].hits++
				break
			}
		}
	}
	e.ContainsBatch(probes, make([]bool, len(probes)))
	for i, s := range segs {
		got := funnel{s.bloomProbes.Load(), s.bloomPass.Load(), s.bloomHits.Load()}
		if got != want[i] {
			t.Fatalf("segment %d funnel %+v, per-key walk counts %+v", i, got, want[i])
		}
	}
}

// TestContainsBatchDuringFlushAndCompaction runs the kernel beside a
// flushing writer and the background compactor (the -race half of the
// differential test): keys served before the readers start must always be
// found, keys never inserted never, whatever list a batch captures.
func TestContainsBatchDuringFlushAndCompaction(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		e := openT(t, t.TempDir(), Options{StringKeys: strMode, CompactFanout: 2})
		appendFlush := func(keys []uint64) {
			var err error
			if strMode {
				err = e.AppendStringBatch(strKeysOf(keys))
			} else {
				err = e.AppendBatch(keys)
			}
			if err == nil {
				err = e.Flush()
			}
			if err != nil {
				t.Error(err)
			}
		}
		stable := make([]uint64, 2000)
		absent := make([]uint64, 2000)
		for i := range stable {
			stable[i] = uint64(i) * 8
			absent[i] = uint64(i)*8 + 1
		}
		appendFlush(stable)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // writer: small flushes the compactor keeps merging
			defer wg.Done()
			for round := 0; round < 60; round++ {
				keys := make([]uint64, 50)
				for i := range keys {
					keys[i] = uint64(round*50+i)*8 + 2
				}
				appendFlush(keys)
			}
			close(stop)
		}()
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				probes := append(slices.Clone(stable), absent...)
				out := make([]bool, len(probes))
				for {
					select {
					case <-stop:
						return
					default:
					}
					if strMode {
						e.ContainsBatchString(strKeysOf(probes), out)
					} else {
						e.ContainsBatch(probes, out)
					}
					if i := slices.Index(out[:len(stable)], false); i >= 0 {
						t.Errorf("str=%v: served key %d not found mid-flush", strMode, probes[i])
						return
					}
					if i := slices.Index(out[len(stable):], true); i >= 0 {
						t.Errorf("str=%v: absent key %d found", strMode, absent[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		if want := len(stable) + 60*50; e.Len() != want {
			t.Fatalf("str=%v: Len=%d, want %d", strMode, e.Len(), want)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayedWALDedupesInChunks: a log that outlived its own segment is
// replayed at the next open; the chunked dedupe must drop every duplicate
// (more of them than one kernel chunk, spread over several segments) and
// keep the novel keys, so segments stay disjoint and Len exact.
func TestReplayedWALDedupesInChunks(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		dir := t.TempDir()
		e := openT(t, dir, Options{NoCompactor: true, StringKeys: strMode})
		keys := dedupSorted(data.Uniform(5*containsChunk+90, 1<<40, 77))
		third := len(keys) / 3
		for _, part := range [][]uint64{keys[:third], keys[third : 2*third], keys[2*third:]} {
			var err error
			if strMode {
				err = e.AppendStringBatch(strKeysOf(part))
			} else {
				err = e.AppendBatch(part)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		// The crash image: every served key logged again, around novel keys.
		novel := []uint64{1<<41 + 1, 1<<41 + 2, 1<<41 + 3}
		relog := append(append(slices.Clone(keys[:len(keys)/2]), novel...), keys[len(keys)/2:]...)
		w := newWALT(t, filepath.Join(dir, e.walName(99)))
		var err error
		if strMode {
			err = w.appendStrings(strKeysOf(relog))
		} else {
			err = w.append(relog)
		}
		if err == nil {
			err = w.sync()
		}
		if err != nil {
			t.Fatal(err)
		}
		w.close()

		re := openT(t, dir, Options{NoCompactor: true, StringKeys: strMode})
		if want := len(keys) + len(novel); re.Len() != want {
			t.Fatalf("str=%v: Len=%d after replay, want %d", strMode, re.Len(), want)
		}
		if got := re.Stats().Segments; got != 4 {
			t.Fatalf("str=%v: %d segments after replay, want 3 + the novel keys' one", strMode, got)
		}
		distinct := 0
		if strMode {
			distinct = len(slices.Compact(re.KeysStrings()))
		} else {
			distinct = len(slices.Compact(re.Keys()))
		}
		if distinct != re.Len() {
			t.Fatalf("str=%v: segments overlap: %d distinct keys, Len %d", strMode, distinct, re.Len())
		}
		re.Close()
	}
}

// TestSegmentImageBytesUnchanged pins the in-place encoders to the format:
// the image sized once and encoded in place must equal, byte for byte, the
// append-built reference (the encoder this replaced), with no slack left in
// the buffer — and the file an engine spills, however many drains built its
// keys up, is that image.
func TestSegmentImageBytesUnchanged(t *testing.T) {
	checkSpilledFileIsOneStepWrite(t)
	reference := func(magic [8]byte, keys []uint64, sections ...[]byte) []byte {
		body := binenc.AppendUvarint(nil, uint64(len(keys)))
		body = binenc.AppendUvarint(body, keys[0])
		for i := 1; i < len(keys); i++ {
			body = binenc.AppendUvarint(body, keys[i]-keys[i-1])
		}
		for _, sec := range sections {
			body = binenc.AppendBytes(body, sec)
		}
		out := append(magic[:len(magic):len(magic)], body...)
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	}
	for _, n := range []int{1, 2, 100, 5000} {
		dir := t.TempDir()
		keys := dedupSorted(data.LognormalPaper(n, int64(n)))
		seg, err := writeSegment(vfs.OS, nil, dir, 0, 0, keys, core.Config{}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := seg.rmi.AppendBinary(nil)
		img, err := encodeSegment(keys, seg.rmi, seg.filter)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(segMagic, keys, rb, seg.filter.AppendBinary(nil)); !slices.Equal(img, want) {
			t.Fatalf("v1 image of %d keys differs from the reference encoding", n)
		}
		if len(img) != cap(img) {
			t.Fatalf("v1 image of %d keys: len %d, cap %d", n, len(img), cap(img))
		}

		strs := stringTestKeys(n, int64(n))
		sseg, err := writeStringSegment(vfs.OS, nil, dir, 1, 1, strs, core.Config{}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		srb, _ := sseg.rmi.AppendBinary(nil)
		simg, err := encodeStringSegment(sseg.sindex, sseg.filter)
		if err != nil {
			t.Fatal(err)
		}
		want := reference(segMagic2, sseg.sindex.Prefixes(), srb, sseg.filter.AppendBinary(nil), sseg.sindex.Dict().AppendBinary(nil))
		if !slices.Equal(simg, want) {
			t.Fatalf("v2 image of %d keys differs from the reference encoding", n)
		}
		if len(simg) != cap(simg) {
			t.Fatalf("v2 image of %d keys: len %d, cap %d", n, len(simg), cap(simg))
		}
	}
}

// repeat returns n copies of v.
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}
