// Command lix-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lix-bench [flags] <experiment>...
//
// Experiments: naive, figure4, figure5, figure6, figure8, figure10,
// figure11, table1, appendixA, appendixE, compiled, searchshootout, all
// (everything except the GRU-training path of figure10; add -gru to
// include it). compiled and searchshootout go beyond the paper: compiled
// times the devirtualized flat read path (core.Plan) per key and through
// its batch kernel; searchshootout races the §3.4 last-mile strategies plus
// branchless lower-bound search on identical precomputed windows. The
// repo's own serving, storage, wire and replication planes are measured
// by the benchmark module under benchmark/, not here.
//
// Flags scale the run. Defaults are laptop-sized; experiments size their
// structures from -n so the paper's ratios (keys per B-Tree page, keys
// per RMI leaf, key-domain occupancy) hold at any size (see
// experiments.Options).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"learnedindex/internal/experiments"
)

func main() {
	n := flag.Int("n", 2_000_000, "integer dataset size")
	nstr := flag.Int("nstr", 200_000, "string dataset size")
	nurl := flag.Int("nurl", 20_000, "URL key-set size")
	probes := flag.Int("probes", 200_000, "lookup probes per measurement")
	rounds := flag.Int("rounds", 3, "timing rounds")
	seed := flag.Int64("seed", 1, "dataset seed")
	gru := flag.Bool("gru", false, "train the GRU series in figure10 (slow)")
	flag.Parse()

	opts := experiments.Options{
		N: *n, NStr: *nstr, NUrl: *nurl,
		Probes: *probes, Rounds: *rounds, Seed: *seed,
		Out: os.Stdout,
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lix-bench [flags] <naive|figure4|figure5|figure6|figure8|figure10|figure11|table1|appendixA|appendixE|compiled|searchshootout|all>...")
		os.Exit(2)
	}
	for _, exp := range args {
		run(exp, opts, *gru)
	}
}

func run(exp string, opts experiments.Options, gru bool) {
	start := time.Now()
	switch exp {
	case "naive":
		experiments.Naive(opts)
	case "figure4":
		experiments.Figure4(opts)
	case "figure5":
		experiments.Figure5(opts)
	case "figure6":
		experiments.Figure6(opts)
	case "figure8":
		experiments.Figure8(opts)
	case "figure10":
		experiments.Figure10(opts, gru)
	case "figure11":
		experiments.Figure11(opts)
	case "table1":
		experiments.Table1(opts)
	case "appendixA":
		experiments.AppendixA(opts)
	case "appendixE":
		experiments.AppendixE(opts)
	case "compiled":
		experiments.Compiled(opts)
	case "searchshootout":
		experiments.SearchShootout(opts)
	case "all":
		for _, e := range []string{"naive", "figure4", "figure5", "figure6", "figure8", "figure10", "figure11", "table1", "appendixA", "appendixE", "compiled", "searchshootout"} {
			run(e, opts, gru)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
		os.Exit(2)
	}
	fmt.Printf("[%s done in %v]\n", exp, time.Since(start).Round(time.Millisecond))
}
