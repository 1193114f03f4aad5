package router

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
)

// routerChaosTally aggregates injected-fault and coverage counts across
// every trial so the suite can assert the schedules actually fire AND that
// the router actually fanned batches across nodes — a chaos oracle whose
// faults never inject, or whose batches all landed on one node, proves
// nothing.
var routerChaosTally = struct {
	sync.Mutex
	net    map[string]int
	fanout int64
	pruned int64
	kills  int64
}{net: map[string]int{}}

func tallyRouterChaos(fnet *repl.FaultNet, st Stats, kills int64) {
	routerChaosTally.Lock()
	defer routerChaosTally.Unlock()
	for k, v := range fnet.InjectionCounts() {
		routerChaosTally.net[k] += v
	}
	routerChaosTally.fanout += st.FanoutBatches
	routerChaosTally.pruned += st.PrunedNodes
	routerChaosTally.kills += kills
}

// routerChaosNet is the wire fault schedule: flaky dials, dropped and torn
// and bit-flipped and reordered messages, slow links — the repl oracle's
// mix pointed at the serving wire.
func routerChaosNet(seed int64) repl.FaultNetConfig {
	return repl.FaultNetConfig{
		Seed:         seed,
		DialErr:      0.05,
		DropConn:     0.01,
		TornWrite:    0.01,
		CorruptBit:   0.01,
		ReorderWrite: 0.01,
		Delay:        0.02,
		MaxDelay:     time.Millisecond,
	}
}

// TestRouterChaosOracle is the serving plane's randomized chaos oracle: a
// three-node partitioned cluster served over a fault-injected wire while
// the driver mixes routed durable inserts, scripted partitions, and node
// kill/restart cycles — 25 seeds per key mode (one per mode under -race).
//
// The invariant is total: every answer the router returns (LookupBatch,
// ContainsBatch, CountRange, ScanBatch) must equal a single in-process
// store holding the union of all acknowledged inserts. Transport errors
// are retried — an error is not an answer — but nothing the router
// *returns* may ever disagree with the oracle.
func TestRouterChaosOracle(t *testing.T) {
	seeds := 25
	if raceEnabled {
		seeds = 1
	}
	for _, mode := range []struct {
		name string
		str  bool
	}{{"uint64", false}, {"string", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			// The extra "trials" group makes its concurrent children complete
			// before the coverage assertions below run. Trials are driven
			// from an explicit goroutine pool rather than t.Parallel: each
			// trial is >99% idle (fsync and watchdog waits dominate, CPU is
			// negligible), so overlapping them is nearly free — but go
			// test's -parallel cap defaults to GOMAXPROCS, which would
			// serialize the fleet on small machines. Concurrent t.Run calls
			// are safe as long as all return before the parent does, which
			// wg.Wait guarantees.
			t.Run("trials", func(t *testing.T) {
				sem := make(chan struct{}, 8)
				var wg sync.WaitGroup
				for s := 0; s < seeds; s++ {
					seed := int64(9500 + s)
					wg.Add(1)
					go func() {
						defer wg.Done()
						sem <- struct{}{}
						defer func() { <-sem }()
						t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
							runRouterChaosTrial(t, seed, mode.str)
						})
					}()
				}
				wg.Wait()
			})
			if t.Failed() || raceEnabled {
				return // one -race seed cannot promise every class fires
			}
			routerChaosTally.Lock()
			defer routerChaosTally.Unlock()
			for _, class := range []string{"dial", "drop_conn", "torn_write", "corrupt_bit", "reorder_write", "partition"} {
				if routerChaosTally.net[class] == 0 {
					t.Errorf("chaos schedule never injected %q across the seed fleet", class)
				}
			}
			if routerChaosTally.fanout == 0 {
				t.Error("no batch ever fanned out across >=2 nodes")
			}
			if routerChaosTally.pruned == 0 {
				t.Error("no node contact was ever pruned by its fences")
			}
			if routerChaosTally.kills == 0 {
				t.Error("no node was ever killed and restarted")
			}
		})
	}
}

// chaosCluster is one trial's mutable topology: persistent node stores
// behind wire servers, killable and restartable in place.
type chaosCluster struct {
	t       *testing.T
	tr      *repl.FaultNet
	strMode bool
	dirs    []string
	stores  []*serve.Store
	servers []*server.Server
	down    int // index of the killed node, or -1
	kills   int64
}

func (cl *chaosCluster) addr(i int) string { return fmt.Sprintf("n%d", i) }

func (cl *chaosCluster) start(i int) {
	var st *serve.Store
	var err error
	opt := serve.Options{Dir: cl.dirs[i]}
	if cl.strMode {
		st, err = serve.OpenString(nil, core.Config{}, opt)
	} else {
		st, err = serve.Open(nil, core.Config{}, opt)
	}
	if err != nil {
		cl.t.Fatalf("open node %d: %v", i, err)
	}
	srv := server.NewServer(st, server.Options{DrainTimeout: 500 * time.Millisecond})
	if err := srv.Serve(cl.tr, cl.addr(i)); err != nil {
		cl.t.Fatalf("serve node %d: %v", i, err)
	}
	cl.stores[i], cl.servers[i] = st, srv
}

func (cl *chaosCluster) kill(i int) {
	cl.servers[i].Close()
	cl.stores[i].Close()
	cl.stores[i], cl.servers[i] = nil, nil
	cl.down = i
	cl.kills++
}

// heal restores full service: restart the down node, lift the partition.
func (cl *chaosCluster) heal() {
	if cl.down >= 0 {
		cl.start(cl.down)
		cl.down = -1
	}
	cl.tr.SetPartitioned(false)
}

func (cl *chaosCluster) close() {
	for i := range cl.stores {
		if cl.servers[i] != nil {
			cl.servers[i].Close()
		}
		if cl.stores[i] != nil {
			cl.stores[i].Close()
		}
	}
}

func runRouterChaosTrial(t *testing.T, seed int64, strMode bool) {
	rng := rand.New(rand.NewSource(seed))
	str := func(k uint64) string { return fmt.Sprintf("k%016x", k) }
	const domain = uint64(3) << 20
	fences := []uint64{1 << 20, 2 << 20}
	fencesStr := []string{str(fences[0]), str(fences[1])}

	mem := repl.NewMemTransport()
	fnet := repl.NewFaultNet(mem, routerChaosNet(seed))
	cl := &chaosCluster{
		t: t, tr: fnet, strMode: strMode, down: -1,
		dirs:    []string{t.TempDir(), t.TempDir(), t.TempDir()},
		stores:  make([]*serve.Store, 3),
		servers: make([]*server.Server, 3),
	}
	defer cl.close()
	for i := range cl.dirs {
		cl.start(i)
	}

	var oracle *serve.Store
	if strMode {
		oracle = serve.NewString(nil, core.Config{}, serve.Options{})
	} else {
		oracle = serve.New(nil, core.Config{}, serve.Options{})
	}
	defer oracle.Close()

	rt, err := New(
		[]Node{{Addr: cl.addr(0)}, {Addr: cl.addr(1)}, {Addr: cl.addr(2)}},
		Options{
			Transport:     fnet,
			StringKeys:    strMode,
			Fences:        fences,
			FencesStr:     fencesStr,
			RetryAttempts: 6,
			RetryBackoff:  time.Millisecond,
			ClientTimeout: 2 * time.Second,
			ScanPageKeys:  64, // small pages: cross-node scans actually paginate
		})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// withRetry drives one router call until it yields an answer: transport
	// errors are not answers. Healing (restart + partition lift) happens
	// after a few failures so the retry loop terminates; the fault schedule
	// is disarmed only as a last resort, and re-armed by the caller.
	withRetry := func(name string, fn func() error) {
		for i := 0; ; i++ {
			if err := fn(); err == nil {
				return
			} else if i > 40 {
				t.Fatalf("%s never succeeded: %v", name, err)
			} else if i > 25 {
				fnet.Disarm()
			} else if i > 8 {
				cl.heal()
			}
			time.Sleep(time.Millisecond)
		}
	}

	var mirror []uint64 // every acknowledged key, for probe sampling
	insertAcked := func(batch []uint64) {
		withRetry("insert", func() error {
			if strMode {
				ss := make([]string, len(batch))
				for i, k := range batch {
					ss[i] = str(k)
				}
				return rt.InsertDurableString(ss...)
			}
			return rt.InsertDurable(batch...)
		})
		fnet.Arm()
		for _, k := range batch {
			if strMode {
				oracle.InsertString(str(k))
			} else {
				oracle.Insert(k)
			}
		}
		mirror = append(mirror, batch...)
	}

	rounds := 8
	if raceEnabled {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		// Scripted events first, so the insert loop exercises retry paths
		// against a degraded cluster.
		if rng.Float64() < 0.35 && cl.down < 0 {
			cl.kill(rng.Intn(3))
		}
		if rng.Float64() < 0.25 {
			fnet.SetPartitioned(true)
		}

		batch := make([]uint64, 0, 40)
		for i := 0; i < 40; i++ {
			batch = append(batch, uint64(rng.Int63n(int64(domain))))
		}
		insertAcked(batch)

		// Verify on alternate rounds (and always on the last): flushing
		// three persistent stores is fsync-heavy, and letting two insert
		// batches accumulate between verifies also exercises reads against
		// a deeper unverified delta. Verification runs only against a
		// fully healed cluster — faults stay armed, but every node is up
		// and the partition is lifted, so retries can always make
		// progress.
		if round%2 == 0 && round != rounds-1 {
			continue
		}
		cl.heal()
		for _, st := range cl.stores {
			st.Flush()
		}
		oracle.Flush()

		probes := make([]uint64, 0, 64)
		for i := 0; i < 24; i++ {
			probes = append(probes, mirror[rng.Intn(len(mirror))])
		}
		for i := 0; i < 24; i++ {
			probes = append(probes, uint64(rng.Int63n(int64(domain)))+uint64(rng.Intn(2))<<40)
		}
		probes = append(probes, 0, fences[0], fences[1], fences[0]-1, domain, ^uint64(0)>>1)

		if strMode {
			sprobes := make([]string, len(probes))
			for i, k := range probes {
				sprobes[i] = str(k)
			}
			var pos []int
			withRetry("lookup", func() error {
				var err error
				pos, err = rt.LookupBatchString(sprobes)
				return err
			})
			for i, p := range sprobes {
				if want := oracle.LookupString(p); pos[i] != want {
					t.Fatalf("round %d: LookupBatchString(%q) = %d, oracle %d", round, p, pos[i], want)
				}
			}
			var bs []bool
			withRetry("contains", func() error {
				var err error
				bs, err = rt.ContainsBatchString(sprobes)
				return err
			})
			for i, p := range sprobes {
				if bs[i] != oracle.ContainsString(p) {
					t.Fatalf("round %d: ContainsBatchString(%q) = %v, oracle disagrees", round, p, bs[i])
				}
			}
			lo := str(uint64(rng.Int63n(int64(domain))))
			hi := str(uint64(rng.Int63n(int64(domain))))
			if hi < lo {
				lo, hi = hi, lo
			}
			var cnt int
			withRetry("count", func() error {
				var err error
				cnt, err = rt.CountRangeString(lo, hi)
				return err
			})
			if want := oracle.CountRangeString(lo, hi); cnt != want {
				t.Fatalf("round %d: CountRangeString(%q,%q) = %d, oracle %d", round, lo, hi, cnt, want)
			}
			var scanned []string
			withRetry("scan", func() error {
				var err error
				scanned, err = rt.ScanBatchString(lo, hi, scanned[:0])
				return err
			})
			if want := oracle.ScanBatchString(lo, hi, nil); !slices.Equal(scanned, want) {
				t.Fatalf("round %d: ScanBatchString(%q,%q): %d keys, oracle %d", round, lo, hi, len(scanned), len(want))
			}
		} else {
			var pos []int
			withRetry("lookup", func() error {
				var err error
				pos, err = rt.LookupBatch(probes)
				return err
			})
			if want := oracle.LookupBatch(probes); !slices.Equal(pos, want) {
				t.Fatalf("round %d: LookupBatch diverged from oracle", round)
			}
			var bs []bool
			withRetry("contains", func() error {
				var err error
				bs, err = rt.ContainsBatch(probes)
				return err
			})
			if !slices.Equal(bs, oracle.ContainsBatch(probes)) {
				t.Fatalf("round %d: ContainsBatch diverged from oracle", round)
			}
			lo := uint64(rng.Int63n(int64(domain)))
			hi := uint64(rng.Int63n(int64(domain)))
			if hi < lo {
				lo, hi = hi, lo
			}
			var cnt int
			withRetry("count", func() error {
				var err error
				cnt, err = rt.CountRange(lo, hi)
				return err
			})
			if want := oracle.CountRange(lo, hi); cnt != want {
				t.Fatalf("round %d: CountRange(%d,%d) = %d, oracle %d", round, lo, hi, cnt, want)
			}
			var scanned []uint64
			withRetry("scan", func() error {
				var err error
				scanned, err = rt.ScanBatch(lo, hi, scanned[:0])
				return err
			})
			if want := oracle.ScanBatch(lo, hi, nil); !slices.Equal(scanned, want) {
				t.Fatalf("round %d: ScanBatch(%d,%d): %d keys, oracle %d", round, lo, hi, len(scanned), len(want))
			}
			var total int
			withRetry("count-all", func() error {
				var err error
				total, err = rt.CountRange(0, ^uint64(0)>>1)
				return err
			})
			if total != oracle.Len() {
				t.Fatalf("round %d: full-range count %d != oracle len %d", round, total, oracle.Len())
			}
		}
		fnet.Arm() // withRetry may have disarmed as a last resort
	}

	tallyRouterChaos(fnet, rt.Stats(), cl.kills)
}
