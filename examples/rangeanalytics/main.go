// Range analytics: the paper's range-index story end to end — time-window
// aggregates over a live event stream, answered by streaming scans and
// learned counts instead of full materialization.
//
// The scenario: a week of event timestamps (microseconds since epoch,
// Poisson-ish arrivals) is served by the concurrent Store while fresh
// events keep arriving into its pending list. Analytics run concurrently
// with ingest and see every acked event:
//
//   - per-day traffic counts via Store.CountRange — exact, answered by two
//     compiled-plan lookups per segment with a delta correction, zero
//     iteration no matter how wide the day is;
//   - a drill-down into the busiest day via Store.Scan: a snapshot-
//     consistent streaming merge (pending inserts + segments) entered
//     at the model-predicted position, computing an aggregate (mean
//     inter-arrival gap) the count alone cannot give;
//   - a paged export of one hour via Iterator.NextBatch, the batched drain
//     that backs Store.ScanBatch.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"learnedindex"
)

const (
	day  = uint64(24 * time.Hour / time.Microsecond)
	hour = uint64(time.Hour / time.Microsecond)
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// A week of historical events: ~200k arrivals with a daily rhythm.
	t0 := uint64(1_700_000_000) * 1_000_000 // epoch microseconds
	var events []uint64
	ts := t0
	for ts < t0+7*day {
		hourOfDay := (ts / hour) % 24
		mean := 4_000_000.0 // µs between events (~4s), off-peak
		if hourOfDay >= 9 && hourOfDay < 17 {
			mean = 1_500_000.0 // business hours are busier (~1.5s)
		}
		ts += uint64(rng.ExpFloat64()*mean) + 1
		events = append(events, ts)
	}
	st := learnedindex.NewStore(events, learnedindex.Config{}, learnedindex.StoreOptions{})
	defer st.Close()
	fmt.Printf("indexed %d events across 7 days\n\n", st.Len())

	// Live ingest: today's events land in the pending list. No Flush —
	// scans and counts must (and do) see them anyway.
	today := t0 + 7*day
	live := 0
	for ts = today; ts < today+6*hour; live++ {
		ts += uint64(rng.ExpFloat64()*2_000_000) + 1
		st.Insert(ts)
	}
	fmt.Printf("ingested %d live events (%d of them still pending a drain)\n\n", live, st.Pending())

	// Per-day counts: learned COUNT over each day window.
	fmt.Println("events per day (CountRange, zero iteration):")
	busiest, busiestDay := 0, 0
	start := time.Now()
	for d := 0; d < 8; d++ {
		lo := t0 + uint64(d)*day
		n := st.CountRange(lo, lo+day)
		if n > busiest {
			busiest, busiestDay = n, d
		}
		fmt.Printf("  day %d: %7d\n", d, n)
	}
	fmt.Printf("8 window counts in %v\n\n", time.Since(start).Round(time.Microsecond))

	// Drill-down: stream the busiest day and compute the mean gap — an
	// aggregate that needs the keys themselves, delivered incrementally.
	lo := t0 + uint64(busiestDay)*day
	it := st.Scan(lo, lo+day)
	var prev, gapSum uint64
	n := 0
	start = time.Now()
	for it.Next() {
		if n > 0 {
			gapSum += it.Key() - prev
		}
		prev = it.Key()
		n++
	}
	it.Close()
	fmt.Printf("day %d drill-down: %d events, mean inter-arrival %.1f ms (streamed in %v)\n\n",
		busiestDay, n, float64(gapSum)/float64(n-1)/1000, time.Since(start).Round(time.Microsecond))

	// Paged export: one live hour in fixed-size batches, the shape a
	// downstream sink (file writer, network) wants.
	page := make([]uint64, 512)
	it = st.Scan(today, today+hour)
	pages, exported := 0, 0
	for {
		n := it.NextBatch(page)
		exported += n
		if n > 0 {
			pages++
		}
		if n < len(page) {
			break
		}
	}
	it.Close()
	fmt.Printf("exported the first live hour: %d events in %d pages of %d\n", exported, pages, len(page))
}
