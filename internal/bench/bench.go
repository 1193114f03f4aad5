// Package bench is the measurement harness behind cmd/lix-bench's paper
// tables (internal/experiments): nanosecond-scale lookup timing with warm-up,
// size accounting, and fixed-width table rendering that mirrors the paper's
// figure layout (value plus "(x.xx×)" factor against a reference row).
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// TimeLookups measures the mean latency of fn over the probes, after a
// warm-up pass, amortized over `rounds` full passes. The accumulated sink
// defeats dead-code elimination.
func TimeLookups(probes []uint64, rounds int, fn func(uint64) int) time.Duration {
	if len(probes) == 0 {
		return 0
	}
	if rounds < 1 {
		rounds = 1
	}
	var sink int
	for _, p := range probes { // warm-up
		sink += fn(p)
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range probes {
			sink += fn(p)
		}
	}
	el := time.Since(start)
	use(sink)
	return el / time.Duration(rounds*len(probes))
}

// TimeStringLookups is TimeLookups for string keys.
func TimeStringLookups(probes []string, rounds int, fn func(string) int) time.Duration {
	if len(probes) == 0 {
		return 0
	}
	if rounds < 1 {
		rounds = 1
	}
	var sink int
	for _, p := range probes {
		sink += fn(p)
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range probes {
			sink += fn(p)
		}
	}
	el := time.Since(start)
	use(sink)
	return el / time.Duration(rounds*len(probes))
}

var sinkBox int

//go:noinline
func use(v int) { sinkBox += v }

// MB formats bytes as megabytes with two decimals.
func MB(bytes int) string { return fmt.Sprintf("%.2f", float64(bytes)/(1<<20)) }

// Factor renders v/ref as the paper's "(x.xx×)" annotations (speedup when
// ref/v, size factor when v/ref — caller picks the ratio).
func Factor(ratio float64) string { return fmt.Sprintf("(%.2fx)", ratio) }

// Table renders fixed-width rows.
type Table struct {
	Headers []string
	Rows    [][]string
	Title   string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
