package main

// The ladder: the traced run replays the same batches at every depth of the
// stack, one rung at a time, so that a rung's median minus the median of the
// rung beneath it is that layer's self time. The program is not edited:
// every span is recorded here, around a call into a layer's public API.
//
// Read ladder:  core.plan → serve.store → server.mem → server.tcp → router.tcp
// Write ladder: storage.append → storage.commit → serve.insert_durable →
//               server.tcp.write → router.tcp.write
//
// Every workload runs both ladders in full, on its own keys and probes, with
// the stores persistent or not as the workload has them (the write ladder is
// always persistent: nothing else has a durable write).

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"
)

// rung is one depth of a ladder, timed over the ladder's batches.
type rung struct {
	name string
	us   []float64 // one latency per batch
}

func (r rung) p50() float64 { return median(r.us) }

// ladderState carries what the rungs share.
type ladderState[K uint64 | string] struct {
	res   *result
	epoch time.Time
	spans []span
	reads []op[K] // lookup calls of worker 0's cycle, in order
	fresh [][]K   // insert batches
}

// climb times call over batches after a short untimed pass, recording one
// span per batch whose parent is the rung above. check, when not nil, runs
// after each timed call, outside the timed interval.
func climb[K uint64 | string, B any](ls *ladderState[K], name, parent string, batches []B, call func(B) error, check func(int, B)) (rung, error) {
	for i := 0; i < min(len(batches), 64); i++ {
		if err := call(batches[i]); err != nil {
			return rung{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	r := rung{name: name, us: make([]float64, 0, len(batches))}
	for i, b := range batches {
		t0 := time.Now()
		err := call(b)
		t1 := time.Now()
		if err != nil {
			return rung{}, fmt.Errorf("%s: %w", name, err)
		}
		r.us = append(r.us, micros(t1.Sub(t0)))
		ls.spans = append(ls.spans, span{name, i, parent, t0.Sub(ls.epoch).Nanoseconds(), t1.Sub(ls.epoch).Nanoseconds()})
		if check != nil {
			check(i, b)
		}
	}
	return r, nil
}

// readRung times lookup over the read batches and checks every position: the
// ladder's stores hold exactly the preloaded keys.
func readRung[K uint64 | string](ls *ladderState[K], name, parent string, lookup func([]K) ([]int, error)) (rung, error) {
	var got []int
	return climb(ls, name, parent, ls.reads,
		func(o op[K]) (err error) {
			got, err = lookup(o.keys)
			return err
		},
		func(i int, o op[K]) {
			ok := len(got) == len(o.pos)
			for j := 0; ok && j < len(got); j++ {
				ok = got[j] == int(o.pos[j])
			}
			ls.res.check(ok, "%s: batch %d: positions %v, reference %v", name, i, got, o.pos)
		})
}

// writeRung times insert over the insert batches.
func writeRung[K uint64 | string](ls *ladderState[K], name, parent string, insert func([]K) error) (rung, error) {
	return climb(ls, name, parent, ls.fresh, insert, nil)
}

func ladder[K uint64 | string](res *result, sp *spec, ks keyspace[K], pre []K, ws []*worker[K], opt options) ([]span, error) {
	nRead, nWrite := 2000, 640
	if opt.smoke {
		nRead, nWrite = 60, 24
	}
	ls := &ladderState[K]{res: res, epoch: time.Now()}
	for _, o := range ws[0].ops {
		if o.kind == opLookup && len(ls.reads) < nRead {
			ls.reads = append(ls.reads, o)
		}
	}
	fresh := newRNG(opt.seed, sp.name+"/ladder")
	for i := 0; i < nWrite; i++ {
		b := make([]K, batchKeys)
		for j := range b {
			b[j] = ks.draw(fresh, classIns)
		}
		ls.fresh = append(ls.fresh, b)
	}
	root := filepath.Join(opt.root, "ladder")
	dirOf := func(name string) string {
		if !sp.disk {
			return ""
		}
		return filepath.Join(root, name)
	}

	read, err := readLadder(ls, sp, pre, dirOf)
	if err != nil {
		return nil, err
	}
	write, err := writeLadder(ls, sp, pre, root)
	if err != nil {
		return nil, err
	}
	if err := replRung(ls, sp, ks, root); err != nil {
		return nil, err
	}
	if err := drainRung(ls, pre); err != nil {
		return nil, err
	}
	codecMetrics(res, opt.seed)
	rtt, err := loopbackRTT(len(ls.reads))
	if err != nil {
		return nil, err
	}
	res.set("wire.loopback_rtt_us", median(rtt), len(rtt))

	budget(res, "read", read, []string{"", "serve.self_us", "server.codec_self_us", "wire.kernel_self_us", "router.self_us"})
	budget(res, "write", write, []string{"", "storage.commit_self_us", "serve.self_write_us", "server.self_write_us", "router.self_write_us"})
	return ls.spans, nil
}

// budget publishes each rung's self time (its median minus the median of the
// rung beneath) under the given names and notes the table's two ends, which
// agree by construction: the self times telescope to the top rung.
func budget(res *result, ladderName string, rungs []rung, selfNames []string) {
	sum, below := 0.0, 0.0
	for i, r := range rungs {
		self := r.p50() - below
		below = r.p50()
		sum += self
		if i > 0 { // the bottom rung's self time is the rung itself, published by its own name
			res.set(selfNames[i], self, len(r.us))
		}
		res.note(fmt.Sprintf("budget.%s.%d.%s", ladderName, i, r.name), self, "us", len(r.us))
	}
	res.note("budget."+ladderName+".sum_of_self", sum, "us", len(rungs))
	res.note("budget."+ladderName+".top_rung", below, "us", len(rungs))
}

func readLadder[K uint64 | string](ls *ladderState[K], sp *spec, pre []K, dirOf func(string) string) ([]rung, error) {
	res := ls.res
	// core.plan: one RMI over every key, nothing else.
	t0 := time.Now()
	ix := trainIndex(pre)
	res.set("core.train_ms_per_mkeys", time.Since(t0).Seconds()*1e3/(float64(len(pre))/1e6), 1)
	res.set("core.max_abs_err", float64(ix.maxAbsErr), 0)
	res.set("core.mean_abs_err", ix.meanAbsErr, 0)
	res.set("core.index_bytes_per_key", float64(ix.sizeBytes)/float64(len(pre)), 0)
	res.set("keycodec.dict_collision_ratio", float64(ix.dictCollisions)/float64(len(pre)), 0)
	res.set("keycodec.max_group", float64(ix.dictMaxGroup), 0)
	res.note("core.search_kind."+ix.searchKind, 1, "flag", 0)
	out := make([]int, batchKeys)
	core, err := readRung(ls, "core.plan", "serve.store", func(p []K) ([]int, error) {
		ix.lookupBatch(p, out)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res.set("core.plan_batch_ns_per_key", core.p50()*1e3/batchKeys, len(core.us))
	singleAndLastMile(ls, ix)

	// serve.store: one store over every key.
	st, err := openStore(pre, dirOf("read-store"), osFS)
	if err != nil {
		return nil, err
	}
	defer st.close()
	serve, err := readRung(ls, "serve.store", "server.mem", storeTarget[K](st).lookup)
	if err != nil {
		return nil, err
	}
	res.set("serve.lookup_batch_us", serve.p50(), len(serve.us))
	if err := scanMetrics(ls, st, pre); err != nil {
		return nil, err
	}

	// server.mem, server.tcp: the same store behind one server, reached over
	// the in-memory transport and over TCP loopback.
	single := func(listen, dial netTransport, addr, name, parent string) (r rung, err error) {
		err = withClient(st, listen, dial, addr, func(c *wireClient) (err error) {
			r, err = readRung(ls, name, parent, func(p []K) ([]int, error) { return clientLookup(c, p) })
			return err
		})
		return r, err
	}
	memNet := newMemTransport()
	mem, err := single(memNet, memNet, "ladder", "server.mem", "server.tcp")
	if err != nil {
		return nil, err
	}
	res.set("server.mem_rpc_us", mem.p50(), len(mem.us))
	counted := newCountNet(tcpTransport)
	tcp, err := single(tcpTransport, counted, loopback, "server.tcp", "router.tcp")
	if err != nil {
		return nil, err
	}
	res.set("wire.tcp_rpc_us", tcp.p50(), len(tcp.us))
	bare, err := single(tcpTransport, tcpTransport, loopback, "server.tcp.bare", "")
	if err != nil {
		return nil, err
	}
	res.set("wire.wrapper_overhead_pct", (tcp.p50()/bare.p50()-1)*100, len(bare.us))
	p50, n := histQuantile(st.metrics(), mServerRequestNs, 0.5)
	res.set("server.request_us_p50", p50/1e3, int(n))

	// router.tcp: the keys split over three such nodes behind the router.
	d, err := deploy(&spec{nodes: 3, disk: sp.disk, str: sp.str}, pre, dirOf("read-cluster"))
	if err != nil {
		return nil, err
	}
	defer d.close()
	rt, err := readRung(ls, "router.tcp", "", d.t.lookup)
	if err != nil {
		return nil, err
	}
	res.set("router.rpc_us", rt.p50(), len(rt.us))
	return []rung{core, serve, mem, tcp, rt}, nil
}

// singleAndLastMile times the plan one key at a time, and the plan's search
// strategy alone on the windows the model predicts.
func singleAndLastMile[K uint64 | string](ls *ladderState[K], ix *index[K]) {
	type window struct {
		k            uint64
		lo, hi, pred int
	}
	var probes []K
	var wins []window
	for _, o := range ls.reads[:min(len(ls.reads), 256)] {
		for _, p := range o.keys {
			k, lo, hi, pred := ix.window(p)
			probes, wins = append(probes, p), append(wins, window{k, lo, hi, pred})
		}
	}
	sink := 0
	var single, last []float64
	for rep := 0; rep < 8; rep++ {
		t0 := time.Now()
		for _, p := range probes {
			sink += ix.lookupOne(p)
		}
		t1 := time.Now()
		for _, w := range wins {
			sink += ix.lastMile(w.k, w.lo, w.hi, w.pred)
		}
		t2 := time.Now()
		single = append(single, float64(t1.Sub(t0).Nanoseconds())/float64(len(probes)))
		last = append(last, float64(t2.Sub(t1).Nanoseconds())/float64(len(wins)))
	}
	ls.res.check(sink != 0, "single-key lookups all returned position 0")
	ls.res.set("core.plan_single_ns", median(single), len(probes)*len(single))
	ls.res.set("search.lastmile_ns_per_key", median(last), len(wins)*len(last))
}

// scanMetrics times opening, streaming and counting 1000-key ranges.
func scanMetrics[K uint64 | string](ls *ladderState[K], st *store, pre []K) error {
	r := newRNG(1, "ladder/scan")
	t := storeTarget[K](st)
	buf := make([]K, scanKeys+batchKeys)
	var open, perKey, count []float64
	span := min(scanKeys, len(pre)-1)
	for i := 0; i < min(len(ls.reads), 400); i++ {
		lo := r.intn(len(pre) - span)
		t0 := time.Now()
		next, closeScan := scanCursor(st, pre[lo], pre[lo+span])
		t1 := time.Now()
		n := next(buf)
		t2 := time.Now()
		closeScan()
		t3 := time.Now()
		c, err := t.count(pre[lo], pre[lo+span])
		t4 := time.Now()
		ls.res.check(err == nil && n == span && c == span, "ladder scan of %d keys streamed %d, counted %d: %v", span, n, c, err)
		open = append(open, micros(t1.Sub(t0)))
		perKey = append(perKey, float64(t2.Sub(t1).Nanoseconds())/float64(span))
		count = append(count, micros(t4.Sub(t3)))
	}
	ls.res.set("scan.open_us", median(open), len(open))
	ls.res.set("scan.ns_per_key", median(perKey), len(perKey)*span)
	ls.res.set("scan.count_range_us", median(count), len(count))
	return nil
}

func writeLadder[K uint64 | string](ls *ladderState[K], sp *spec, pre []K, root string) ([]rung, error) {
	res := ls.res
	// storage.append, storage.commit: a bare engine, without and with the
	// covering fsync; the commit rung also on the bare FS, to price the wrapper.
	onEngine := func(name, parent string, fs fsFS, call func(*engine, []K) error) (rung, error) {
		e, err := openEngine(filepath.Join(root, name), fs, sp.str)
		if err != nil {
			return rung{}, err
		}
		defer e.close()
		return writeRung(ls, name, parent, func(b []K) error { return call(e, b) })
	}
	appendR, err := onEngine("storage.append", "storage.commit", newCountFS(osFS), engineAppend[K])
	if err != nil {
		return nil, err
	}
	res.set("storage.append_ns_per_key", appendR.p50()*1e3/batchKeys, len(appendR.us))
	commitFS := newCountFS(osFS)
	commit, err := onEngine("storage.commit", "serve.insert_durable", commitFS, engineCommit[K])
	if err != nil {
		return nil, err
	}
	res.set("storage.commit_us", commit.p50(), len(commit.us))
	syncs := durationsToMicros(commitFS.syncDurations())
	res.set("vfs.fsync_us_p50", median(syncs), len(syncs))
	bare, err := onEngine("storage.commit.bare", "", osFS, engineCommit[K])
	if err != nil {
		return nil, err
	}
	res.set("vfs.wrapper_overhead_pct", (commit.p50()/bare.p50()-1)*100, len(bare.us))

	// The stores of the higher rungs start from a thinned copy of the keys:
	// enough to place the router's fences where the workload has them, small
	// enough that preloading it three times costs little.
	thin := make([]K, 0, 100_000)
	for i, stride := 0, max(1, len(pre)/100_000); i < len(pre); i += stride {
		thin = append(thin, pre[i])
	}

	// serve.insert_durable: one persistent store. Its flushes and
	// compactions, and a crash copy of it, give the storage timings.
	storeFS := newCountFS(osFS)
	storeDir := filepath.Join(root, "serve.insert_durable")
	st, err := openStore(thin, storeDir, storeFS)
	if err != nil {
		return nil, err
	}
	defer st.close()
	insert, err := writeRung(ls, "serve.insert_durable", "server.tcp.write", storeTarget[K](st).insert)
	if err != nil {
		return nil, err
	}
	res.set("serve.insert_durable_us", insert.p50(), len(insert.us))
	var acked []K
	for _, b := range ls.fresh {
		acked = append(acked, b...)
	}
	crash := storeDir + "-crash"
	if err := storeFS.crashCopy(storeDir, crash); err != nil {
		return nil, err
	}
	reopenS, _ := reopenAndCheck(res, crash, thin, acked)
	res.set("storage.reopen_ms", reopenS*1e3, 1)
	st.flush()
	m := st.metrics()
	flushP50, flushes := histQuantile(m, mStorageFlushNs, 0.5)
	compactP50, compactions := histQuantile(m, mStorageCompactNs, 0.5)
	res.set("storage.flush_ms_p50", flushP50/1e6, int(flushes))
	res.set("storage.compaction_ms_p50", compactP50/1e6, int(compactions))

	// server.tcp: one such store behind a server on TCP loopback.
	nodeSt, err := openStore(thin, filepath.Join(root, "server.tcp.write"), newCountFS(osFS))
	if err != nil {
		return nil, err
	}
	defer nodeSt.close()
	var tcp rung
	err = withClient(nodeSt, tcpTransport, newCountNet(tcpTransport), loopback, func(c *wireClient) (err error) {
		tcp, err = writeRung(ls, "server.tcp.write", "router.tcp.write", func(b []K) error { return clientInsert(c, b) })
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("server.write_tcp_us", tcp.p50(), len(tcp.us))

	// router.tcp: three of them behind the router.
	d, err := deploy(&spec{nodes: 3, disk: true, str: sp.str}, thin, filepath.Join(root, "router.tcp.write"))
	if err != nil {
		return nil, err
	}
	defer d.close()
	rt, err := writeRung(ls, "router.tcp.write", "", d.t.insert)
	if err != nil {
		return nil, err
	}
	res.set("router.write_rpc_us", rt.p50(), len(rt.us))
	return []rung{appendR, commit, insert, tcp, rt}, nil
}

// withClient runs f with one connection to one server in front of st.
func withClient(st *store, listen, dial netTransport, addr string, f func(*wireClient) error) error {
	srv, err := startServer(st, listen, addr)
	if err != nil {
		return err
	}
	defer srv.close()
	c, err := dialClient(dial, srv.addr(), st.stringKeys())
	if err != nil {
		return err
	}
	defer c.close()
	return f(c)
}

// replRung sends the write batches to a primary that ships its WAL to one
// follower, and times how long after the last acknowledgement the follower
// has everything. Shipping is off the commit path, so this is not a rung of
// the budget table.
func replRung[K uint64 | string](ls *ladderState[K], sp *spec, ks keyspace[K], root string) error {
	res := ls.res
	prim, err := openStore[K](nil, filepath.Join(root, "repl.primary"), osFS)
	if err != nil {
		return err
	}
	defer prim.close()
	addr, err := prim.serveReplication(tcpTransport, loopback)
	if err != nil {
		return err
	}
	fol, err := openFollower(sp.str, filepath.Join(root, "repl.follower"), osFS, tcpTransport, addr)
	if err != nil {
		return err
	}
	defer fol.close()
	if err := waitFor(30*time.Second, fol.followerConnected); err != nil {
		return fmt.Errorf("follower connect: %w", err)
	}
	t := storeTarget[K](prim)
	lagMax := uint64(0)
	for _, b := range ls.fresh {
		if err := t.insert(b); err != nil {
			return fmt.Errorf("repl insert: %w", err)
		}
		lagMax = max(lagMax, fol.followerLag())
	}
	t0 := time.Now()
	err = waitFor(30*time.Second, func() bool { return fol.countAll() == prim.countAll() })
	res.set("repl.converge_ms", time.Since(t0).Seconds()*1e3, 1)
	res.check(err == nil, "ladder follower did not converge: %v", err)
	res.set("repl.lag_frames_max", float64(lagMax), len(ls.fresh))
	res.set("repl.ship_bytes_per_user_byte", sumSeries(prim.metrics(), mReplBytesShipped)/float64(int64(len(ls.fresh))*batchKeys*ks.keyBytes), 0)
	fol.flush()
	ft := storeTarget[K](fol)
	for i, b := range ls.fresh {
		has, err := ft.contains(b)
		res.check(err == nil && allEqual(has, true, len(b)), "ladder follower lost keys of batch %d: %v", i, err)
	}
	return nil
}

// drainRung puts the write batches into an in-memory store over the
// workload's keys, where an insert is buffered and a background drain merges,
// retrains and publishes a new snapshot: the RCU path no workload's mix
// exercises, priced here so that serve.drain_ms_p50 is never idle.
func drainRung[K uint64 | string](ls *ladderState[K], pre []K) error {
	st, err := openStore(pre, "", nil)
	if err != nil {
		return err
	}
	defer st.close()
	t := storeTarget[K](st)
	for _, b := range ls.fresh {
		if err := t.insert(b); err != nil {
			return fmt.Errorf("in-memory insert: %w", err)
		}
	}
	st.flush()
	for i, b := range ls.fresh {
		has, err := t.contains(b)
		ls.res.check(err == nil && allEqual(has, true, len(b)), "in-memory store lost keys of batch %d: %v", i, err)
	}
	p50, n := histQuantile(st.metrics(), mServeDrainNs, 0.5)
	ls.res.set("serve.drain_ms_p50", p50/1e6, int(n))
	return nil
}

// codecMetrics times the key codec's prefix on DocID keys. The codec is a
// pure function of a string, so every workload can price it, whatever its
// own keys are.
func codecMetrics(res *result, seed uint64) {
	r := newRNG(seed, "ladder/codec")
	ids := make([]string, 4096)
	for i := range ids {
		ids[i] = docIDKey(r, classPre)
	}
	var sink uint64
	var per []float64
	for rep := 0; rep < 16; rep++ {
		t0 := time.Now()
		for _, id := range ids {
			sink += keyPrefix(id)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(ids)))
	}
	res.check(sink != 0, "key prefixes all zero")
	res.set("keycodec.prefix_ns", median(per), len(ids)*len(per))
}

// loopbackRTT is n one-byte echoes over a raw TCP loopback connection: the
// floor under every RPC on this machine, with none of the program in it.
func loopbackRTT(n int) ([]float64, error) {
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	b := []byte{1}
	us := make([]float64, 0, n)
	for i := 0; i < n+64; i++ {
		t0 := time.Now()
		if _, err := c.Write(b); err != nil {
			c.Close()
			return nil, err
		}
		if _, err := io.ReadFull(c, b); err != nil {
			c.Close()
			return nil, err
		}
		if i >= 64 {
			us = append(us, micros(time.Since(t0)))
		}
	}
	c.Close()
	return us, <-echoed
}

// writeSpans writes one workload's spans beside the run directories, in out/.
func writeSpans(root, name string, spans []span) error {
	dir := filepath.Join(filepath.Dir(root), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), data, 0o644)
}
