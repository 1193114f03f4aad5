package main

// One run of one workload: generate inputs, measure in rounds of set-up plus
// closed loop until the measured time is reached, verify every answer against
// the reference, and turn what was observed into named metrics.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	root    string // scratch directory for this process; removed on exit
}

// result is what one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Keys      int                `json:"keys"`
	Calls     map[string]int64   `json:"calls"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FirstFail string             `json:"first_failure,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // observations behind a metric, where it has any
	Info      []info             `json:"info"`    // numbers only some workloads have
}

// info is a number printed for the reader that is not a catalog metric.
type info struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func (res *result) set(name string, v float64, samples int) {
	res.Metrics[name] = v
	if samples > 0 {
		res.Samples[name] = samples
	}
}

func (res *result) note(name string, v float64, unit string, n int) {
	res.Info = append(res.Info, info{name, v, unit, n})
}

// check counts one verified answer, and one failure when it is wrong.
func (res *result) check(ok bool, format string, args ...any) {
	res.Attempted++
	if !ok {
		res.Failed++
		if res.FirstFail == "" {
			res.FirstFail = fmt.Sprintf(format, args...)
		}
	}
}

// runSpec dispatches on the key type.
func runSpec(sp *spec, opt options) (*result, error) {
	if sp.str {
		return runWorkload(sp, stringKeys, opt)
	}
	return runWorkload(sp, uintKeys, opt)
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC() // sync.Pool contents survive one collection
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// loopCounters is everything read before and after the measured loop.
type loopCounters struct {
	fs     fsCounts
	net    netCounts
	router routerStats
	stores []*metrics
	mem    runtime.MemStats
	cpu    float64
}

func readCounters[K uint64 | string](d *deployment[K]) loopCounters {
	var c loopCounters
	if d.fs != nil {
		c.fs = d.fs.counts()
	}
	if d.net != nil {
		c.net = d.net.counts()
	}
	if d.cl != nil {
		c.router = d.cl.stats()
	}
	c.stores = d.storeMetrics()
	runtime.ReadMemStats(&c.mem)
	c.cpu = cpuSeconds()
	return c
}

// sumOver adds a series up over every store.
func sumOver(ms []*metrics, base string) float64 {
	t := 0.0
	for _, m := range ms {
		t += sumSeries(m, base)
	}
	return t
}

// queueWatch samples, while a traced round runs, the deepest insert queue:
// a number that only shows in passing.
type queueWatch struct {
	queued func() float64 // keys waiting for a drain or flush, now
	max    float64
	stop   chan struct{}
	done   sync.WaitGroup
}

func (q *queueWatch) start() {
	q.stop = make(chan struct{})
	q.done.Add(1)
	go func() {
		defer q.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
				q.max = max(q.max, q.queued())
			}
		}
	}()
}

func (q *queueWatch) finish() {
	close(q.stop)
	q.done.Wait()
}

// ampMark is bytes written through the FS and user bytes handed to inserts
// at one instant; write amplification between two marks is the ratio of
// their differences.
type ampMark struct{ written, user int64 }

func ampBetween(from, to ampMark) float64 {
	if user := to.user - from.user; user > 0 {
		return float64(to.written-from.written) / float64(user)
	}
	return 0
}

// roundTotals is what the workers of one round saw, added up.
type roundTotals[K uint64 | string] struct {
	lat                [numClasses][]float64 // microseconds, all workers
	calls              [numOpKinds]int64
	keysMoved, scanned int64
	acked              []K
}

func totalsOf[K uint64 | string](ws []*worker[K]) (t roundTotals[K]) {
	for _, w := range ws {
		for c := range t.lat {
			t.lat[c] = append(t.lat[c], durationsToMicros(w.lat[c])...)
		}
		for k, c := range w.calls {
			t.calls[k] += c
		}
		t.keysMoved, t.scanned = t.keysMoved+w.keysMoved, t.scanned+w.scanned
		t.acked = append(t.acked, w.acked...)
	}
	return t
}

func (t *roundTotals[K]) totalCalls() (n int64) {
	for _, c := range t.calls {
		n += c
	}
	return n
}

// runWorkload measures in rounds. A round is a fresh deployment, set up and
// warmed (timed: one sample of setup_s), then a fixed number of calls per
// worker (timed: one sample of every other timing). Rounds repeat until the
// measured time reaches opt.seconds; every timing is the median over rounds.
// A fixed call count makes every round walk the same path from the same
// state, so a store that slows as it grows is compared like for like,
// whatever the machine's speed; fresh deployments give the median
// independent samples of memory placement and background timing.
func runWorkload[K uint64 | string](sp *spec, ks keyspace[K], opt options) (*result, error) {
	n, roundCalls := sp.keys, sp.roundCalls
	if opt.smoke {
		n, roundCalls = sp.smokeKeys, sp.smokeRoundCalls
	}
	res := &result{Workload: sp.name, Seed: opt.seed, Trace: opt.trace, Keys: n,
		Calls: map[string]int64{}, Metrics: map[string]float64{}, Samples: map[string]int{}}
	// Every file of this run lives under one fresh directory, removed at the end.
	spanRoot := opt.root
	runDir, err := os.MkdirTemp(opt.root, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	opt.root = runDir
	pre := ks.preload(newRNG(opt.seed, sp.name+"/keys"), n)
	ws := newWorkers(sp, ks, pre, opt.seed)

	var (
		d             *deployment[K]
		before, after loopCounters
		last          roundTotals[K]
		queuedMax     float64
		perRound      = map[string][]float64{} // one value per round, by name
		samples       = map[string]int{}       // observations behind them, over all rounds
		measured      time.Duration
	)
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	add := func(name string, v float64, n int) {
		perRound[name] = append(perRound[name], v)
		samples[name] += n
	}
	r := &run[K]{ks: ks, pre: pre, trace: opt.trace, epoch: time.Now()}
	r.mark = func() {
		m := ampMark{user: r.sent.Load() * ks.keyBytes}
		if d.fs != nil {
			m.written = d.fs.counts().totalWritten()
		}
		r.marks = append(r.marks, m)
	}
	probeLen := probeSteps
	if opt.smoke {
		probeLen /= 50
	}
	probe := newHostProbe(probeLen)
	heapBefore := heapAlloc()
	for round := 0; round == 0 || measured.Seconds() < opt.seconds; round++ {
		if d != nil {
			checkRound(res, d, pre, last.acked)
			d.close()
			d = nil
		}
		t0 := time.Now()
		if d, err = deploy(sp, pre, filepath.Join(opt.root, fmt.Sprintf("round%d", round))); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		r.t = d.t
		replay(r, ws, warmOps, true)
		setup := time.Since(t0)
		add("heap_bytes_per_key", float64(heapAlloc()-heapBefore)/float64(n), 1)
		probeBefore := probe.run()
		add("raw.setup_s", setup.Seconds(), 1)
		add("setup_s", setup.Seconds()/probe.slowdown(probeBefore), 1)

		for _, w := range ws {
			w.reset()
		}
		r.sent.Store(0)
		r.marks = r.marks[:0]
		var watch *queueWatch
		if opt.trace {
			watch = &queueWatch{queued: func() float64 {
				ms := d.storeMetrics()
				return sumOver(ms, mServeQueuedKeys) + sumOver(ms, mStoragePending)
			}}
			watch.start()
		}
		before = readCounters(d)
		r.mark()
		wall := replay(r, ws, roundCalls, false)
		r.mark()
		after = readCounters(d)
		// How slow the host was while the round ran: the probe just before
		// and just after it, against the probe's time on a quiet host. The
		// end-to-end timings are reported at that nominal speed; the raw
		// values are kept beside them.
		host := (probeBefore + probe.run()) / 2
		slow := probe.slowdown(host)
		add("host.probe_ms", host.Seconds()*1e3, 2)
		add("host.slowdown", slow, 2)
		if watch != nil {
			watch.finish()
			queuedMax = watch.max
		}
		measured += wall

		last = totalsOf(ws)
		for k, c := range last.calls {
			res.Calls[opNames[k]] += c
		}
		calls, reads := last.totalCalls(), last.lat[clsRead]
		res.Attempted += calls
		add("raw.calls_s", float64(calls)/wall.Seconds(), int(calls))
		add("calls_s", float64(calls)/wall.Seconds()*slow, int(calls))
		for _, q := range []struct {
			name string
			q    float64
		}{{"read_p50_us", 0.50}, {"read_p95_us", 0.95}} {
			v := quantileOf(reads, q.q)
			add("raw."+q.name, v, len(reads))
			add(q.name, v/slow, len(reads))
		}
		add("read_p99_us", quantileOf(reads, 0.99), len(reads))
		add("kkeys_s", float64(last.keysMoved)/wall.Seconds()/1e3, int(last.keysMoved))
		if w := last.lat[clsWrite]; len(w) > 0 {
			add("write_kkeys_s", float64(len(last.acked))/wall.Seconds()/1e3, len(last.acked))
			add("write_p50_us", quantileOf(w, 0.50), len(w))
			add("write_p99_us", quantileOf(w, 0.99), len(w))
		}
		if s := last.lat[clsScan]; len(s) > 0 {
			add("scan_mkeys_s", float64(last.scanned)/wall.Seconds()/1e6, int(last.scanned))
			add("scan_p50_us", quantileOf(s, 0.50), len(s))
		}
	}
	for _, w := range ws {
		res.Failed += w.failed
		if res.FirstFail == "" {
			res.FirstFail = w.firstFail
		}
	}

	// The heap a deployment needs is the least any round saw after set-up:
	// whatever a transfer buffer or the benchmark's own samples added on top
	// in another round is not the deployment's. Every timing is the median
	// over the rounds; a traced run's are named apart from an untraced run's.
	res.set("heap_bytes_per_key", slices.Min(perRound["heap_bytes_per_key"]), len(perRound["heap_bytes_per_key"]))
	res.set("setup_s", median(perRound["setup_s"]), samples["setup_s"])
	prefix := ""
	if opt.trace {
		prefix = "trace."
	}
	for _, name := range []string{"calls_s", "read_p50_us", "read_p95_us"} {
		res.set(prefix+name, median(perRound[name]), samples[name])
	}
	res.note("rounds", float64(len(perRound["calls_s"])), "count", 0)
	res.note("measured_s", measured.Seconds(), "s", 0)
	for _, in := range []struct{ name, unit string }{
		{"host.probe_ms", "ms"}, {"host.slowdown", "ratio"}, {"raw.setup_s", "s"}, {"raw.calls_s", "1/s"}, {"raw.read_p50_us", "us"},
		{"raw.read_p95_us", "us"}, {"read_p99_us", "us"}, {"kkeys_s", "kkeys/s"}, {"write_kkeys_s", "kkeys/s"}, {"write_p50_us", "us"},
		{"write_p99_us", "us"}, {"scan_mkeys_s", "Mkeys/s"}, {"scan_p50_us", "us"},
	} {
		if vs := perRound[in.name]; len(vs) > 0 {
			res.note(in.name, median(vs), in.unit, samples[in.name])
		}
	}

	// The last round's deployment is verified in full.
	verify(res, r, d, last.acked, opt)

	if opt.trace {
		loopMetrics(res, r, before, after, queuedMax, &last)
		spans, err := ladder(res, sp, ks, pre, ws, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", sp.name, err)
		}
		for _, w := range ws {
			spans = append(spans, w.spans...)
		}
		if err := writeSpans(spanRoot, sp.name, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkRound is the cheap check of a round that is not the last: after a
// flush the stores must hold the preloaded keys and every distinct key an
// insert acknowledged. The last round gets the full verification.
func checkRound[K uint64 | string](res *result, d *deployment[K], pre, acked []K) {
	want, got := len(pre)+len(sortDedup(slices.Clone(acked))), 0
	for _, st := range d.stores {
		st.flush()
		got += st.length()
	}
	res.check(got == want, "after a round the stores hold %d keys, reference %d", got, want)
}

// loopMetrics turns the counters read around the last traced round into the
// per-layer counts and ratios.
func loopMetrics[K uint64 | string](res *result, r *run[K], before, after loopCounters, queuedMax float64,
	t *roundTotals[K]) {
	calls, totalCalls, keysMoved, scanned := t.calls, t.totalCalls(), t.keysMoved, t.scanned
	ackedBytes := int64(len(t.acked)) * r.ks.keyBytes
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(base string) float64 { return sumOver(after.stores, base) - sumOver(before.stores, base) }
	scanCalls := calls[opScan] + calls[opCount]

	res.set("loop.write_calls", float64(calls[opInsert]), 0)
	res.set("loop.scan_calls", float64(scanCalls), 0)
	res.set("loop.scan_keys_per_call", ratio(float64(scanned), float64(calls[opScan])), int(calls[opScan]))
	written := after.fs.totalWritten() - before.fs.totalWritten()
	res.set("loop.write_amp", ratio(float64(written), float64(ackedBytes)), 0)
	// marks: start, worker 0 a third and two thirds through its calls, end.
	res.set("loop.write_amp_drift", ratio(ampBetween(r.marks[2], r.marks[3]), ampBetween(r.marks[1], r.marks[2])), 0)

	res.set("serve.snapshot_swaps", delta(mServeSwaps), 0)
	res.set("serve.queued_keys_max", queuedMax, 0)
	res.set("storage.keys_per_fsync", ratio(delta(mServeInserts), delta(mStorageWALSyncs)), int(delta(mStorageWALSyncs)))
	res.set("storage.flushes", delta(mStorageFlushes), 0)
	res.set("storage.compactions", delta(mStorageCompacts), 0)
	res.set("storage.backpressure_waits", delta(mStorageBackpress), 0)
	res.set("storage.models_trained", delta(mStorageTrained), 0)

	fsyncs := after.fs.fsyncs - before.fs.fsyncs
	writeCalls := after.fs.writeCalls[classWAL] + after.fs.writeCalls[classSegment] -
		before.fs.writeCalls[classWAL] - before.fs.writeCalls[classSegment]
	res.set("vfs.fsyncs", float64(fsyncs), 0)
	res.set("vfs.write_calls", float64(writeCalls), 0)
	res.set("vfs.avg_write_bytes", ratio(float64(written), float64(writeCalls)), int(writeCalls))
	res.set("vfs.bytes_written_wal", float64(after.fs.bytesWritten[classWAL]-before.fs.bytesWritten[classWAL]), 0)
	res.set("vfs.bytes_written_segment", float64(after.fs.bytesWritten[classSegment]-before.fs.bytesWritten[classSegment]), 0)
	res.set("vfs.bytes_read", float64(after.fs.bytesRead-before.fs.bytesRead), 0)

	res.set("server.timeouts", delta(mServerTimeouts), 0)
	res.set("server.errors", delta(mServerErrors), 0)
	nc := after.net.sub(before.net)
	res.set("wire.bytes_per_key", ratio(float64(nc.bytesOut+nc.bytesIn), float64(keysMoved)), 0)
	res.set("wire.msgs_per_call", ratio(float64(nc.msgsOut), float64(totalCalls)), 0)
	res.set("wire.dials", float64(nc.dials), 0)
	rs, rb := after.router, before.router
	batches := float64(rs.batches - rb.batches)
	res.set("router.node_rpcs_per_call", ratio(float64(rs.rpcs-rb.rpcs), batches), int(batches))
	res.set("router.pruned_nodes_per_call", ratio(float64(rs.prunedNodes-rb.prunedNodes), batches), 0)
	res.set("router.fanout_ratio", ratio(float64(rs.fanoutBatches-rb.fanoutBatches), batches), 0)
	res.set("router.retries", float64(rs.retries-rb.retries), 0)

	mallocs := float64(after.mem.Mallocs - before.mem.Mallocs)
	res.set("runtime.allocs_per_call", ratio(mallocs, float64(totalCalls)), int(totalCalls))
	res.set("runtime.alloc_bytes_per_call", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), float64(totalCalls)), 0)
	res.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, int(after.mem.NumGC-before.mem.NumGC))
	res.set("runtime.cpu_s_per_mkeys", ratio(after.cpu-before.cpu, float64(keysMoved)/1e6), 0)
}
