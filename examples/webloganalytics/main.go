// Weblog analytics: the paper's §2 motivating scenario — a read-only
// in-memory analytics index over web-server request timestamps, answering
// time-window queries ("requests in a certain time frame"). Compares a
// learned index against the B-Tree it replaces, including the hybrid
// fallback for this "almost worst-case" distribution.
package main

import (
	"fmt"

	"learnedindex/internal/btree"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

func main() {
	const n = 1_000_000
	keys := data.Weblogs(n, 7)
	span := keys[len(keys)-1] - keys[0]
	fmt.Printf("weblog: %d unique request timestamps over %d seconds\n\n", n, span)

	// Index alternatives over the timestamp column.
	bt := btree.New([]uint64(keys), 128)

	cfg := core.DefaultConfig(n / 1000)
	cfg.Top = core.TopNN
	cfg.Hidden = []int{16, 16}
	rmi := core.New(keys, cfg)

	hybridCfg := cfg
	hybridCfg.HybridThreshold = 256
	hybrid := core.New(keys, hybridCfg)

	fmt.Printf("%-28s %10s %12s\n", "index", "size (B)", "max err")
	fmt.Printf("%-28s %10d %12s\n", "B-Tree page 128", bt.SizeBytes(), "-")
	fmt.Printf("%-28s %10d %12d\n", "learned (NN top, 1k leaves)", rmi.SizeBytes(), rmi.MaxAbsErr())
	fmt.Printf("%-28s %10d %12d (%d leaves -> B-Trees)\n",
		"hybrid t=256", hybrid.SizeBytes(), hybrid.MaxAbsErr(), hybrid.NumHybrid())

	// Analytics queries: request counts per (scaled) day over a week.
	day := span / (4 * 365)
	fmt.Println("\nrequests per day (first week, via RangeScan):")
	for d := uint64(0); d < 7; d++ {
		lo := keys[0] + d*day
		hi := lo + day
		s, e := rmi.RangeScan(lo, hi)
		// Verify against the B-Tree answer.
		bs, be := bt.Lookup(lo), bt.Lookup(hi)
		status := "ok"
		if s != bs || e != be {
			status = "MISMATCH"
		}
		fmt.Printf("  day %d: %7d requests  [%s]\n", d+1, e-s, status)
	}

	// Busiest hour of the first day, found by scanning hour windows.
	hour := day / 24
	bestCount, bestHour := 0, 0
	for h := uint64(0); h < 24; h++ {
		lo := keys[0] + h*hour
		s, e := rmi.RangeScan(lo, lo+hour)
		if e-s > bestCount {
			bestCount, bestHour = e-s, int(h)
		}
	}
	fmt.Printf("\nbusiest hour of day 1: hour %d with %d requests\n", bestHour, bestCount)
}
