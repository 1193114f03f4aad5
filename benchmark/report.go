package main

// Printing results, stamping them with their environment, and comparing two
// sets of them against the catalog's bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// spec file: BENCHMARK.json as the driver reads it.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

func benchmarkSpec() specFile {
	sf := specFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		sf.Workloads = append(sf.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		sf.EndToEnd = append(sf.EndToEnd, specMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		sf.PerLayer = append(sf.PerLayer, specMetric{m.name, m.unit, m.better, nil})
	}
	return sf
}

func printSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(benchmarkSpec())
}

// catalogFor is the list a run reports: per-layer when traced.
func catalogFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult writes one line per metric, by name, with unit and sample
// count, then the lines only this workload has.
func printResult(w io.Writer, res *result) error {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d keys=%d %s  calls=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Keys, mode, res.Calls, res.Attempted, res.Failed)
	for _, m := range catalogFor(res.Trace) {
		v, ok := res.Metrics[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, m.name)
		}
		fmt.Fprintf(w, "metric %-18s %-32s %14.4f %-8s n=%d\n", res.Workload, m.name, v, m.unit, res.Samples[m.name])
	}
	for _, in := range res.Info {
		fmt.Fprintf(w, "info   %-18s %-32s %14.4f %-8s n=%d\n", res.Workload, in.Name, in.Value, in.Unit, in.N)
	}
	if res.FirstFail != "" {
		fmt.Fprintf(w, "FAIL   %-18s %s\n", res.Workload, res.FirstFail)
	}
	return nil
}

// driverLine is the one JSON object the driver reads from the last line.
func driverLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range catalogFor(res.Trace) {
		v, ok := res.Metrics[m.name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, m.name)
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// environment is stamped on every result file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func stampEnvironment() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, runtime.GOOS, runtime.GOARCH}
}

// resultSet is a result file: runs of one commit in one environment.
type resultSet struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []*result   `json:"runs"`
}

func (rs *resultSet) write(path string) error {
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func loadResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rs := &resultSet{}
	if err := json.Unmarshal(b, rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// values collects one end-to-end metric of one workload over a set's runs.
func (rs *resultSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rs.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, v)
		}
	}
	return vs
}

func (rs *resultSet) workloads() []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rs.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	return names
}

// verdictOf judges set b against set a for one metric: "unresolved" when
// either set's own spread is wider than the bound, "regressed" when b's
// median is worse than a's by more than the bound, otherwise "within".
func verdictOf(m metricDef, a, b []float64) (medA, medB, spr float64, verdict string) {
	medA, medB = median(a), median(b)
	spr = max(spread(a), spread(b))
	worse := (medB - medA) / medA
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	case spr > m.bound:
		verdict = "unresolved"
	case worse > m.bound:
		verdict = "regressed"
	default:
		verdict = "within"
	}
	return medA, medB, spr, verdict
}

// compare prints, per workload and end-to-end metric, both medians, the
// spread and the bound, and reports whether everything is within bounds.
func compare(w io.Writer, a, b *resultSet) bool {
	ok := true
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, wl := range a.workloads() {
		for _, m := range endToEnd {
			va, vb := a.values(wl, m.name), b.values(wl, m.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-20s missing from one set\n", wl, m.name)
				ok = false
				continue
			}
			medA, medB, spr, verdict := verdictOf(m, va, vb)
			fmt.Fprintf(w, "%-18s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl, m.name, medA, medB, (medB-medA)/medA*100, spr*100, m.bound*100, verdict)
			ok = ok && verdict == "within"
		}
	}
	return ok
}

// summarize prints each metric's median and spread over a set's runs.
func summarize(w io.Writer, rs *resultSet) {
	fmt.Fprintf(w, "%-18s %-20s %14s %8s %7s %4s\n", "workload", "metric", "median", "spread", "bound", "runs")
	for _, wl := range rs.workloads() {
		for _, m := range endToEnd {
			vs := rs.values(wl, m.name)
			fmt.Fprintf(w, "%-18s %-20s %14.4f %7.1f%% %6.0f%% %4d\n", wl, m.name, median(vs), spread(vs)*100, m.bound*100, len(vs))
		}
	}
}
