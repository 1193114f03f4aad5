// Command benchmark is the repository's one benchmark: four seeded closed-loop
// workloads against the real layers, every answer checked against a
// reference, end-to-end metrics with regression bounds, and a traced run
// whose ladder prices every layer. See README.md in this directory.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run; the last line is the driver's JSON
//	benchmark [-repeat N] [-out FILE]                      every workload, untraced then traced
//	benchmark -smoke                                       the same at tiny sizes, a few seconds
//	benchmark compare A.json B.json                        judge result set B against A
//	benchmark -print-spec                                  BENCHMARK.json, from the catalog
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload, once, and end with the driver's JSON line")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", runSeconds, "how long the measured loop runs")
		trace     = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run")
		smoke     = flag.Bool("smoke", false, "tiny sizes and a short loop: a self-check, not a measurement")
		repeat    = flag.Int("repeat", 1, "untraced runs per workload, on consecutive seeds")
		out       = flag.String("out", "", "write the result set to this file")
		scratch   = flag.String("scratch", ".bench_build", "directory for store files and span files")
		printOnly = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
		resultTo  = flag.String("result", "", "with -workload: also write the full result to this file (how a run of every workload collects its runs)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		if flag.Arg(0) != "compare" {
			fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
		}
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if *printOnly {
		if err := printSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *smoke {
		*seconds = 0.3
	}
	root, err := filepath.Abs(filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fatal(err)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, root: root}
	var ok bool
	if *workload != "" {
		ok, err = runOne(*workload, opt, *resultTo)
	} else {
		ok, err = runAll(opt, *scratch, *repeat, *out)
	}
	if rerr := os.RemoveAll(root); rerr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", rerr)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload once and ends standard output with the driver's
// JSON line. It reports whether every answer was right; an error means the run
// could not be measured at all.
func runOne(workload string, opt options, resultTo string) (ok bool, err error) {
	sp := findSpec(workload)
	if sp == nil {
		return false, fmt.Errorf("no workload %q", workload)
	}
	res, err := runSpec(sp, opt)
	if err != nil {
		return false, err
	}
	if err := printResult(os.Stdout, res); err != nil {
		return false, err
	}
	if resultTo != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(resultTo, b, 0o644); err != nil {
			return false, err
		}
	}
	line, err := driverLine(res)
	if err != nil {
		return false, err
	}
	fmt.Println(line)
	return res.Failed == 0, nil
}

// runAll runs every workload: `repeat` untraced runs on consecutive seeds,
// then one traced run on the first seed. Every run is its own process, as
// the driver's runs are, so that no run inherits another's heap.
func runAll(opt options, scratch string, repeat int, out string) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := &resultSet{Env: stampEnvironment(), Seconds: opt.seconds}
	fmt.Printf("# env %+v\n", set.Env)
	ok = true
	resultFile := filepath.Join(opt.root, "result.json")
	for _, sp := range specs {
		var untraced *result
		for i := 0; i <= repeat; i++ {
			seed, trace := opt.seed+uint64(i), 0
			if i == repeat {
				seed, trace = opt.seed, 1
			}
			args := []string{"-workload", sp.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(opt.seconds),
				"-trace", fmt.Sprint(trace), "-scratch", scratch, "-result", resultFile}
			if opt.smoke {
				args = append(args, "-smoke")
			}
			child := exec.Command(self, args...)
			child.Stderr = os.Stderr
			stdout, runErr := child.Output()
			lines := strings.TrimRight(string(stdout), "\n")
			if cut := strings.LastIndexByte(lines, '\n'); cut >= 0 {
				fmt.Println(lines[:cut]) // everything but the driver's JSON line
			}
			b, err := os.ReadFile(resultFile)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %v (%v)", sp.name, seed, runErr, err)
			}
			res := &result{}
			if err := json.Unmarshal(b, res); err != nil {
				return false, err
			}
			if err := os.Remove(resultFile); err != nil {
				return false, err
			}
			ok = ok && res.Failed == 0
			set.Runs = append(set.Runs, res)
			if i == 0 {
				untraced = res
			}
			if trace == 1 {
				base, traced := untraced.Metrics["read_p50_us"], res.Metrics["trace.read_p50_us"]
				fmt.Printf("info   %-18s %-32s %14.4f %-8s (traced %.4f us against untraced %.4f us)\n",
					sp.name, "trace_overhead_pct", (traced/base-1)*100, "%", traced, base)
			}
		}
	}
	if repeat > 1 {
		summarize(os.Stdout, set)
	}
	if out != "" {
		if err := set.write(out); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if !compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}
