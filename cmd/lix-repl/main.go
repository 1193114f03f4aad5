// Command lix-repl demonstrates the WAL-shipping replication plane over
// TCP: run a primary that ingests synthetic keys and ships its durable
// frame stream, and one or more followers that replay it into their own
// persistent stores and keep serving through primary restarts.
//
// Primary (epoch 1, listening on :7070, ingesting 1000 keys/s):
//
//	lix-repl -mode primary -dir /tmp/prim -addr :7070 -epoch 1 -rate 1000
//
// Follower (replicating into its own directory):
//
//	lix-repl -mode follower -dir /tmp/fol -addr 127.0.0.1:7070
//
// Both print a one-line status every -status interval. Restart the
// primary with a higher -epoch after a crash; a follower refuses (fences)
// any primary presenting an epoch below the highest it has seen.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"learnedindex/internal/cli"
	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
)

func main() {
	mode := flag.String("mode", "", "primary | follower")
	dir := flag.String("dir", "", "store directory (required)")
	addr := flag.String("addr", "127.0.0.1:7070", "primary: listen address; follower: primary address")
	epoch := flag.Uint64("epoch", 1, "primary fencing epoch (bump after every primary restart)")
	rate := flag.Int("rate", 1000, "primary: synthetic ingest rate, keys/s (0 = none)")
	seed := flag.Int64("seed", 1, "primary: ingest key seed")
	status := flag.Duration("status", time.Second, "status print interval")
	metrics := flag.String("metrics", "", "optional debug listener address (/metrics, /metrics.json)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "lix-repl: -dir is required")
		os.Exit(2)
	}

	stop := cli.Shutdown()

	switch *mode {
	case "primary":
		runPrimary(*dir, *addr, *epoch, *rate, *seed, *status, *metrics, stop)
	case "follower":
		runFollower(*dir, *addr, *status, *metrics, stop)
	default:
		fmt.Fprintln(os.Stderr, "lix-repl: -mode must be primary or follower")
		os.Exit(2)
	}
}

func runPrimary(dir, addr string, epoch uint64, rate int, seed int64, status time.Duration, metrics string, stop <-chan struct{}) {
	st, err := serve.Open(nil, core.Config{}, serve.Options{Dir: dir})
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	if metrics != "" {
		dbg, err := obs.StartDebugServer(metrics, st.Metrics)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
	}
	prim, err := st.ServeReplication(repl.TCP, addr, repl.PrimaryOptions{Epoch: epoch})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("primary: epoch %d serving replication on %s (store %s, %d keys)\n",
		epoch, prim.Addr(), dir, st.Len())

	var ingested int64
	if rate > 0 {
		rng := rand.New(rand.NewSource(seed))
		tick := time.NewTicker(time.Second / 10)
		defer tick.Stop()
		go func() {
			per := rate / 10
			if per < 1 {
				per = 1
			}
			batch := make([]uint64, per)
			for range tick.C {
				for i := range batch {
					batch[i] = uint64(rng.Int63())
				}
				if err := st.InsertDurable(batch...); err != nil {
					fmt.Fprintf(os.Stderr, "primary: ingest: %v\n", err)
					return
				}
				ingested += int64(per)
			}
		}()
	}

	tick := time.NewTicker(status)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fmt.Printf("primary: len=%d ingested=%d deposed=%v\n", st.Len(), ingested, prim.Deposed())
		case <-stop:
			fmt.Printf("primary: shutting down (len=%d ingested=%d)\n", st.Len(), ingested)
			return
		}
	}
}

func runFollower(dir, addr string, status time.Duration, metrics string, stop <-chan struct{}) {
	st, err := serve.OpenFollower(core.Config{}, serve.Options{Dir: dir}, repl.FollowerOptions{Addr: addr})
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	if metrics != "" {
		dbg, err := obs.StartDebugServer(metrics, st.Metrics)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
	}
	fmt.Printf("follower: replicating %s from %s (%d keys already durable)\n", dir, addr, st.Len())

	tick := time.NewTicker(status)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fs, _ := st.FollowerStatus()
			fmt.Printf("follower: len=%d connected=%v applied=%d lag=%d epoch=%d reconnects=%d\n",
				st.Len(), fs.Connected, fs.AppliedSeq, fs.LagFrames, fs.MaxEpoch, fs.Reconnects)
		case <-stop:
			fs, _ := st.FollowerStatus()
			fmt.Printf("follower: shutting down (len=%d applied=%d epoch=%d)\n", st.Len(), fs.AppliedSeq, fs.MaxEpoch)
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lix-repl:", err)
	os.Exit(1)
}
