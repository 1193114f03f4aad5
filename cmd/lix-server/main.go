// Command lix-server serves a learned-index store over the binary wire
// protocol: batch lookups, membership probes, paged range scans, range
// counts, and group-committed durable inserts, one node of a
// range-partitioned cluster fronted by the internal/router client.
//
// Standalone persistent node on :7080:
//
//	lix-server -dir /tmp/n0 -addr :7080
//
// Read-only follower node replicating from a lix-repl primary (serves
// bounded-staleness reads to routers running with -ReadFollowers):
//
//	lix-server -dir /tmp/f0 -addr :7081 -primary 127.0.0.1:7070
//
// A volatile in-memory node (no -dir) is handy for smoke tests. The
// first SIGINT/SIGTERM drains in-flight requests and closes the store;
// a second force-exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"learnedindex/internal/cli"
	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/repl"
	"learnedindex/internal/serve"
	"learnedindex/internal/server"
)

func main() {
	dir := flag.String("dir", "", "store directory (empty = volatile in-memory store)")
	addr := flag.String("addr", "127.0.0.1:7080", "wire protocol listen address")
	strKeys := flag.Bool("strkeys", false, "serve string keys instead of uint64")
	primary := flag.String("primary", "", "replicate from this primary address (requires -dir)")
	metrics := flag.String("metrics", "", "optional debug listener address (/metrics, /metrics.json)")
	status := flag.Duration("status", 5*time.Second, "status print interval")
	inflight := flag.Int("max-inflight", 0, "max concurrent requests (0 = default)")
	flag.Parse()

	st, err := openStore(*dir, *strKeys, *primary)
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	if *metrics != "" {
		dbg, err := obs.StartDebugServer(*metrics, st.Metrics)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
	}

	srv := server.NewServer(st, server.Options{MaxInflight: *inflight})
	if err := srv.Serve(repl.TCP, *addr); err != nil {
		fatal(err)
	}
	role := "standalone"
	if *primary != "" {
		role = "follower of " + *primary
	}
	fmt.Printf("lix-server: %s serving on %s (%d keys)\n", role, srv.Addr(), st.Len())

	stop := cli.Shutdown()
	tick := time.NewTicker(*status)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			printStatus(st)
		case <-stop:
			fmt.Println("lix-server: draining")
			srv.Close()
			printStatus(st)
			return
		}
	}
}

func openStore(dir string, strKeys bool, primary string) (*serve.Store, error) {
	opt := serve.Options{Dir: dir}
	fopt := repl.FollowerOptions{Addr: primary}
	switch {
	case primary != "" && dir == "":
		return nil, fmt.Errorf("-primary requires -dir (followers replay into a persistent store)")
	case primary != "" && strKeys:
		return serve.OpenFollowerString(core.Config{}, opt, fopt)
	case primary != "":
		return serve.OpenFollower(core.Config{}, opt, fopt)
	case dir == "" && strKeys:
		return serve.NewString(nil, core.Config{}, opt), nil
	case dir == "":
		return serve.New(nil, core.Config{}, opt), nil
	case strKeys:
		return serve.OpenString(nil, core.Config{}, opt)
	default:
		return serve.Open(nil, core.Config{}, opt)
	}
}

func printStatus(st *serve.Store) {
	snap := st.Registry().Snapshot()
	line := fmt.Sprintf("lix-server: len=%d conns=%.0f accepts=%d wire_errors=%d",
		st.Len(), snap.Gauge("lix_server_conns"),
		snap.Counter("lix_server_accepts_total"), snap.Counter("lix_server_wire_errors_total"))
	if fs, ok := st.FollowerStatus(); ok {
		line += fmt.Sprintf(" connected=%v applied=%d lag=%d epoch=%d",
			fs.Connected, fs.AppliedSeq, fs.LagFrames, fs.MaxEpoch)
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lix-server:", err)
	os.Exit(1)
}
