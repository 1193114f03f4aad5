package main

// Workload specs, the pre-generated op cycles, and the closed loop that
// replays them. Two workers each replay their own cycle and wait for every
// reply before sending the next call.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

const (
	batchKeys = 64   // keys per read or insert call
	scanKeys  = 1000 // preloaded keys per scanned range
	workers   = 2
	warmOps   = 256  // calls per worker in the warm-up pass
	cycleOps  = 8192 // calls pre-generated per worker; a round replays them in order, wrapping
	// A traced loop keeps the spans of each worker's first calls only: the
	// ladder replays as many batches, and a span file stays a few megabytes.
	maxLoopSpans = 2000
)

type opKind uint8

const (
	opLookup opKind = iota
	opContains
	opInsert
	opScan
	opCount
	numOpKinds
)

// Latencies are reported per class of call.
const (
	clsRead = iota
	clsWrite
	clsScan
	numClasses
)

var (
	classOf = [numOpKinds]int{clsRead, clsRead, clsWrite, clsScan, clsScan}
	opNames = [numOpKinds]string{"lookup", "contains", "insert", "scan", "count"}
)

// spec is one workload: a deployment and a mix of calls.
type spec struct {
	name      string
	str       bool // DocID string keys; otherwise lognormal uint64 keys
	keys      int
	smokeKeys int
	nodes     int     // 0: one store in the process; otherwise TCP servers behind the router
	disk      bool    // persistent stores, fsync on
	follower  bool    // node 0 also ships its WAL to a follower
	zipf      float64 // popularity exponent of read probes; 0 is uniform
	mix       [numOpKinds]float64
	// roundCalls is how many calls each worker makes in one round, set so
	// that a round takes a little over a second on the machine the benchmark was written
	// on; a run of 10 s is then eight to ten rounds.
	roundCalls, smokeRoundCalls int
}

var specs = []*spec{
	{name: "mem-read", keys: 8_000_000, smokeKeys: 20_000, roundCalls: 100_000, smokeRoundCalls: 4000,
		mix: [numOpKinds]float64{opLookup: 0.80, opContains: 0.20}},
	{name: "wire-read", keys: 3_000_000, smokeKeys: 15_000, nodes: 3, zipf: 1.2, roundCalls: 12_500, smokeRoundCalls: 1000,
		mix: [numOpKinds]float64{opLookup: 0.80, opContains: 0.20}},
	{name: "disk-mixed", keys: 2_000_000, smokeKeys: 20_000, disk: true, roundCalls: 5000, smokeRoundCalls: 600,
		mix: [numOpKinds]float64{opLookup: 0.25, opContains: 0.20, opInsert: 0.40, opScan: 0.10, opCount: 0.05}},
	{name: "cluster-mixed-str", str: true, keys: 600_000, smokeKeys: 15_000, nodes: 3, disk: true, follower: true, zipf: 1.2, roundCalls: 3500, smokeRoundCalls: 400,
		mix: [numOpKinds]float64{opLookup: 0.50, opContains: 0.25, opInsert: 0.15, opScan: 0.06, opCount: 0.04}},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// op is one pre-generated call and its reference answer.
type op[K uint64 | string] struct {
	kind opKind
	// keys are the probes of a read, or {lo, hi} of a scan or count; an
	// insert draws fresh keys when it runs.
	keys []K
	// pos is, per key, its lower-bound position among the preloaded keys.
	pos []int32
}

// genOps derives one worker's cycle from its stream of the run seed.
func genOps[K uint64 | string](sp *spec, ks keyspace[K], pre []K, r *rng, z *zipf) []op[K] {
	pick := func() int {
		if z != nil {
			return z.index(r)
		}
		return r.intn(len(pre))
	}
	ops := make([]op[K], cycleOps)
	for i := range ops {
		o := &ops[i]
		u := r.float()
		for k := opKind(0); k < numOpKinds; k++ {
			if o.kind = k; u < sp.mix[k] {
				break
			}
			u -= sp.mix[k]
		}
		switch o.kind {
		case opLookup, opContains:
			o.keys, o.pos = make([]K, batchKeys), make([]int32, batchKeys)
			for j := range o.keys {
				// Half of a contains batch asks for keys that never exist.
				if o.kind == opContains && j%2 == 1 {
					o.keys[j] = ks.draw(r, classMiss)
					o.pos[j] = int32(lowerBound(pre, o.keys[j]))
				} else {
					idx := pick()
					o.keys[j], o.pos[j] = pre[idx], int32(idx)
				}
			}
		case opScan, opCount:
			span := min(scanKeys, len(pre)-1)
			lo := r.intn(len(pre) - span)
			o.keys, o.pos = []K{pre[lo], pre[lo+span]}, []int32{int32(lo), int32(lo + span)}
		}
	}
	return ops
}

// span is one traced call: the guide's name, request, parent, start and end.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// worker is one closed-loop client and everything it observed.
type worker[K uint64 | string] struct {
	id    int
	ops   []op[K]
	fresh *rng // draws the keys of inserts
	acked []K  // every key an insert acknowledged as durable

	lat       [numClasses][]time.Duration
	calls     [numOpKinds]int64
	keysMoved int64 // keys answered, acknowledged or streamed
	scanned   int64 // keys streamed by scans
	failed    int64
	firstFail string
	spans     []span // only when tracing

	insertBuf, scanBuf []K
}

// run is the state the workers of one measured phase share.
type run[K uint64 | string] struct {
	ks   keyspace[K]
	pre  []K // the preloaded keys, sorted: the reference oracle's base
	t    target[K]
	sent atomic.Int64 // keys handed to inserts so far, acknowledged or not
	// epoch is the zero of span times; trace turns span recording on.
	epoch time.Time
	trace bool
	// mark, called by worker 0 a third and two thirds through its calls,
	// records write amplification so far into marks.
	mark  func()
	marks []ampMark
}

func (w *worker[K]) fail(format string, args ...any) {
	w.failed++
	if w.firstFail == "" {
		w.firstFail = fmt.Sprintf("worker %d: ", w.id) + fmt.Sprintf(format, args...)
	}
}

// reset forgets what the worker observed in the previous round.
func (w *worker[K]) reset() {
	for c := range w.lat {
		w.lat[c] = w.lat[c][:0]
	}
	w.calls, w.keysMoved, w.scanned, w.acked = [numOpKinds]int64{}, 0, 0, nil
}

// loop replays the first n calls of the worker's cycle, wrapping around. The
// warm-up pass skips inserts, so that set-up leaves the stores as preloaded,
// and records nothing.
func (w *worker[K]) loop(r *run[K], n int, warm bool) {
	for i := 0; i < n; i++ {
		o := &w.ops[i%len(w.ops)]
		if warm && o.kind == opInsert {
			continue
		}
		if !warm && w.id == 0 && (i == n/3 || i == 2*n/3) {
			r.mark()
		}
		if o.kind == opInsert {
			w.insertBuf = w.insertBuf[:0]
			for j := 0; j < batchKeys; j++ {
				w.insertBuf = append(w.insertBuf, r.ks.draw(w.fresh, classIns))
			}
			r.sent.Add(batchKeys)
		}

		var (
			pos  []int
			has  []bool
			got  []K
			cnt  int
			err  error
			keys = int64(batchKeys)
		)
		t0 := time.Now()
		switch o.kind {
		case opLookup:
			pos, err = r.t.lookup(o.keys)
		case opContains:
			has, err = r.t.contains(o.keys)
		case opInsert:
			err = r.t.insert(w.insertBuf)
		case opScan:
			got, err = r.t.scan(o.keys[0], o.keys[1], w.scanBuf[:0])
		case opCount:
			cnt, err = r.t.count(o.keys[0], o.keys[1])
		}
		t1 := time.Now()

		if warm {
			continue
		}
		w.calls[o.kind]++
		w.lat[classOf[o.kind]] = append(w.lat[classOf[o.kind]], t1.Sub(t0))
		if r.trace && len(w.spans) < maxLoopSpans {
			w.spans = append(w.spans, span{"loop." + opNames[o.kind], i, "", t0.Sub(r.epoch).Nanoseconds(), t1.Sub(r.epoch).Nanoseconds()})
		}
		// Checking is outside the timed interval.
		switch {
		case err != nil:
			w.fail("%s: %v", opNames[o.kind], err)
			keys = 0
		case o.kind == opLookup:
			w.checkLookup(r, o, pos)
		case o.kind == opContains:
			w.checkContains(r, o, has)
		case o.kind == opInsert:
			w.acked = append(w.acked, w.insertBuf...)
		case o.kind == opScan:
			w.checkScan(r, o, got)
			w.scanBuf, keys = got, int64(len(got))
			w.scanned += keys
		case o.kind == opCount:
			keys = 0
			if base := int(o.pos[1] - o.pos[0]); cnt < base || cnt > base+int(r.sent.Load()) {
				w.fail("count [%v, %v) = %d, reference %d plus at most %d inserted", o.keys[0], o.keys[1], cnt, base, r.sent.Load())
			}
		}
		w.keysMoved += keys
	}
}

// checkLookup: a position is exact while nothing is inserted, and otherwise
// bounded by the preloaded position and the number of keys inserted so far.
func (w *worker[K]) checkLookup(r *run[K], o *op[K], pos []int) {
	if len(pos) != len(o.keys) {
		w.fail("lookup returned %d positions for %d probes", len(pos), len(o.keys))
		return
	}
	slack := int(r.sent.Load())
	for j, p := range pos {
		if base := int(o.pos[j]); p < base || p > base+slack {
			w.fail("lookup %v = %d, reference %d plus at most %d inserted", o.keys[j], p, base, slack)
			return
		}
	}
}

// checkContains: presence follows from the key's class alone.
func (w *worker[K]) checkContains(r *run[K], o *op[K], has []bool) {
	if len(has) != len(o.keys) {
		w.fail("contains returned %d answers for %d probes", len(has), len(o.keys))
		return
	}
	for j, h := range has {
		if want := r.ks.class(o.keys[j]) == classPre; h != want {
			w.fail("contains %v = %v, reference %v", o.keys[j], h, want)
			return
		}
	}
}

// checkScan: ascending, inside the range, exactly the preloaded keys of the
// range, and otherwise only keys an insert could have put there.
func (w *worker[K]) checkScan(r *run[K], o *op[K], got []K) {
	want := r.pre[o.pos[0]:o.pos[1]]
	next := 0
	for j, k := range got {
		switch {
		case k < o.keys[0] || k >= o.keys[1] || (j > 0 && k <= got[j-1]):
			w.fail("scan [%v, %v) returned %v out of order or range", o.keys[0], o.keys[1], k)
			return
		case r.ks.class(k) == classIns:
		case next < len(want) && k == want[next]:
			next++
		default:
			w.fail("scan [%v, %v) returned %v, which was never stored", o.keys[0], o.keys[1], k)
			return
		}
	}
	if next != len(want) {
		w.fail("scan [%v, %v) lost %d of %d preloaded keys", o.keys[0], o.keys[1], len(want)-next, len(want))
	}
}

// newWorkers generates every worker's cycle.
func newWorkers[K uint64 | string](sp *spec, ks keyspace[K], pre []K, seed uint64) []*worker[K] {
	var z *zipf
	if sp.zipf > 0 {
		z = newZipf(newRNG(seed, sp.name+"/zipf"), len(pre), sp.zipf)
	}
	ws := make([]*worker[K], workers)
	for i := range ws {
		id := fmt.Sprintf("%s/worker%d", sp.name, i)
		ws[i] = &worker[K]{id: i, ops: genOps(sp, ks, pre, newRNG(seed, id+"/ops"), z), fresh: newRNG(seed, id+"/fresh")}
	}
	return ws
}

// replay runs every worker's loop at once for n calls each, waits for all of
// them, and returns the wall time.
func replay[K uint64 | string](r *run[K], ws []*worker[K], n int, warm bool) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker[K]) {
			defer wg.Done()
			w.loop(r, n, warm)
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
