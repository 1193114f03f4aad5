package main

// The reference oracle after the loop. The loop itself checks every timed
// call against what the preloaded keys and the key classes imply; here, with
// the workers stopped, everything else is checked exactly: that a crash
// would not lose an acknowledged key, then store sizes, membership and
// positions of every key, scan contents, and the follower's copy.

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

func verify[K uint64 | string](res *result, r *run[K], d *deployment[K], acked []K, opt options) {
	ks := r.ks

	// Replication convergence is measured first, straight after the last
	// acknowledgement: the follower has caught up when it holds as many keys
	// as its primary, unflushed ones included.
	if d.follower != nil {
		t0 := time.Now()
		err := waitFor(30*time.Second, func() bool { return d.follower.countAll() == d.stores[0].countAll() })
		res.check(err == nil, "follower did not converge: %v", err)
		res.note("repl_converge_ms", time.Since(t0).Seconds()*1e3, "ms", 1)
	}

	// Durability: what a power loss right now would leave must reopen and
	// hold every acknowledged key. Taken before any flush, so keys that are
	// only in a WAL count on their fsync alone.
	byNode := make([][]K, len(d.stores))
	for _, k := range acked {
		n := d.owner(k)
		byNode[n] = append(byNode[n], k)
	}
	if d.fs != nil {
		var reopenS float64
		loaded := 0.0
		for i, dir := range d.dirs {
			crash := filepath.Join(opt.root, fmt.Sprintf("crash%d", i))
			if err := d.fs.crashCopy(dir, crash); err != nil {
				res.check(false, "crash copy of node %d: %v", i, err)
				continue
			}
			lo, hi := i*len(r.pre)/len(d.stores), (i+1)*len(r.pre)/len(d.stores)
			s, l := reopenAndCheck(res, crash, r.pre[lo:hi], byNode[i])
			reopenS += s
			loaded += l
		}
		res.note("reopen_s", reopenS, "s", len(d.dirs))
		res.set("storage.models_loaded_on_reopen", loaded, 0)
	} else {
		res.set("storage.models_loaded_on_reopen", 0, 0)
	}

	// Quiescent checks on the live system.
	for _, st := range d.stores {
		st.flush()
	}
	all := sortDedup(append(append([]K(nil), r.pre...), acked...))
	total := 0
	for _, st := range d.stores {
		total += st.length()
	}
	res.check(total == len(all), "stores hold %d keys, reference %d", total, len(all))

	// Membership of every key is what the crash copies were checked for; the
	// live system is asked for every fourth batch, for exact positions on every
	// 16th, and for keys that were never stored on every 16th.
	bloomBefore := d.storeMetrics()
	probed := 0
	miss := newRNG(opt.seed, "verify")
	pos := make([]int, 0, batchKeys)
	absent := make([]K, batchKeys)
	for i, lo := 0, 0; lo < len(all); i, lo = i+1, lo+batchKeys {
		batch := all[lo:min(lo+batchKeys, len(all))]
		switch i % 16 {
		case 0, 4, 8, 12:
			has, err := d.t.contains(batch)
			res.check(err == nil && allEqual(has, true, len(batch)), "membership of keys %d..%d: %v %v", lo, lo+len(batch), has, err)
			probed += len(batch)
		case 2:
			got, err := d.t.lookup(batch)
			pos = pos[:0]
			for j := range batch {
				pos = append(pos, lo+j)
			}
			res.check(err == nil && slices.Equal(got, pos), "positions of keys %d..%d: %v %v", lo, lo+len(batch), got, err)
		case 10:
			for j := range absent {
				absent[j] = ks.draw(miss, classMiss)
			}
			has, err := d.t.contains(absent)
			res.check(err == nil && allEqual(has, false, len(absent)), "membership of absent keys: %v %v", has, err)
			probed += len(absent)
		}
	}
	bloomAfter := d.storeMetrics()
	bloom := func(base string) float64 { return sumOver(bloomAfter, base) - sumOver(bloomBefore, base) }
	probes, pass, hits := bloom(mBloomProbes), bloom(mBloomPass), bloom(mBloomHits)
	if probes <= 0 || pass < hits { // no disk, or a compaction replaced counted segments mid-pass
		probes, pass, hits = 0, 0, 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res.set("bloom.probes_per_lookup", probes/float64(probed), probed)
	res.set("bloom.pass_ratio", ratio(pass, probes), int(probes))
	res.set("bloom.false_pass_ratio", ratio(pass-hits, probes-hits), int(probes-hits))

	ranges := newRNG(opt.seed, "verify-scan")
	var buf []K
	for i := 0; i < 16; i++ {
		span := min(scanKeys, len(all)-1)
		lo := ranges.intn(len(all) - span)
		got, err := d.t.scan(all[lo], all[lo+span], buf[:0])
		res.check(err == nil && slices.Equal(got, all[lo:lo+span]), "scan of keys %d..%d returned %d keys: %v", lo, lo+span, len(got), err)
		cnt, err := d.t.count(all[lo], all[lo+span])
		res.check(err == nil && cnt == span, "count of keys %d..%d = %d: %v", lo, lo+span, cnt, err)
		buf = got
	}

	res.set("storage.segments_final", sumOver(bloomAfter, mStorageSegments), 0)
	if d.fs != nil {
		var disk int64
		for _, dir := range d.dirs {
			b, err := dirBytes(dir)
			res.check(err == nil, "size of %s: %v", dir, err)
			disk += b
		}
		res.set("loop.disk_bytes_per_user_byte", float64(disk)/float64(int64(len(all))*ks.keyBytes), 0)
	} else {
		res.set("loop.disk_bytes_per_user_byte", 0, 0)
	}

	// The follower serves node 0's keys, every one of them and no others.
	if d.follower != nil {
		d.follower.flush()
		var own []K
		for _, k := range all {
			if d.owner(k) == 0 {
				own = append(own, k)
			}
		}
		res.check(d.follower.length() == len(own), "follower holds %d keys, node 0 owns %d", d.follower.length(), len(own))
		ft := storeTarget[K](d.follower)
		for lo := 0; lo < len(own); lo += batchKeys {
			batch := own[lo:min(lo+batchKeys, len(own))]
			has, err := ft.contains(batch)
			res.check(err == nil && allEqual(has, true, len(batch)), "follower membership of keys %d..%d: %v", lo, lo+len(batch), err)
		}
	}
}

// reopenAndCheck opens a crash copy on the bare filesystem and checks that
// every acknowledged key, and a sample of the preloaded ones, is there. It
// returns the seconds from open to the first verified answer and how many
// models the open loaded from disk.
func reopenAndCheck[K uint64 | string](res *result, dir string, pre, acked []K) (seconds, loaded float64) {
	t0 := time.Now()
	st, err := openStore[K](nil, dir, osFS)
	if err != nil {
		res.check(false, "reopen %s: %v", dir, err)
		return 0, 0
	}
	defer st.close()
	st.flush() // keys replayed from the WAL are served after a flush
	t := storeTarget[K](st)
	first := true
	for _, keys := range [][]K{acked, pre[:min(len(pre), 64*batchKeys)]} {
		for lo := 0; lo < len(keys); lo += batchKeys {
			batch := keys[lo:min(lo+batchKeys, len(keys))]
			has, err := t.contains(batch)
			res.check(err == nil && allEqual(has, true, len(batch)), "after a crash, keys %d..%d of %s: %v %v", lo, lo+len(batch), dir, has, err)
			if first {
				seconds, first = time.Since(t0).Seconds(), false
			}
		}
	}
	return seconds, sumSeries(st.metrics(), mStorageLoaded)
}

func allEqual(xs []bool, want bool, n int) bool {
	if len(xs) != n {
		return false
	}
	for _, x := range xs {
		if x != want {
			return false
		}
	}
	return true
}
