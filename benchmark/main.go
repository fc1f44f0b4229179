//go:build linux

// Command benchmark is the repository's benchmark: four wire-level workloads
// against child nnlqp-server processes, with a per-layer stage budget
// measured from outside the program. See README.md in this directory.
//
//	go run ./benchmark                         every workload, untraced and traced
//	go run ./benchmark -workload hit_replay    one workload, result as one JSON line
//	go run ./benchmark -repeat 5 -out A.json   five full sets, medians and quartiles
//	go run ./benchmark -compare A.json B.json  regression table, exit 1 on any "worse"
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	os.Exit(run())
}

func run() (code int) {
	workloadName := flag.String("workload", "", "run only this workload and print its result as the last line (the driver's mode)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "length of each timed window")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := flag.String("out", "", "write every run's result to this JSON file")
	repeat := flag.Int("repeat", 1, "run the full set this many times")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %q\n", flag.Args())
		return 2
	}

	e, err := prepare()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Children die with this process on every path: deferred on return and
	// panic, explicit on a signal, and Pdeathsig (see spawn) for the rest.
	defer killChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		removeRunDirs(e.outDir)
		os.Exit(130)
	}()

	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		res, err := runOne(e, w, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(res)
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}

	var all []*runResult
	for i := 0; i < *repeat; i++ {
		for _, w := range workloads() {
			for _, traced := range []bool{false, true} {
				res, err := runOne(e, w, *seed, *seconds, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				printResult(res)
				all = append(all, res)
				if !res.Correct {
					code = 1
				}
			}
		}
	}
	if *repeat > 1 {
		printSpread(all)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(*out, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runOne runs one workload once; a traced run also writes its spans.
func runOne(e *env, w *workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	if !traced {
		return runWorkload(e, w, seed, seconds, nil)
	}
	spans := newTracer()
	res, err := runWorkload(e, w, seed, seconds, spans)
	if err != nil {
		return nil, err
	}
	return res, spans.write(filepath.Join(e.outDir, "trace-"+w.spec.Name+".json"))
}

func printResult(r *runResult) {
	kind := "end to end"
	if r.Trace {
		kind = "per layer"
	}
	fmt.Printf("== %s (seed %d, %s): attempted %d, failed %d, failed_frac %.4f\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, v := range r.Violations {
		fmt.Println("   wrong:", v)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("   %-34s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
}

// series collects, per workload and metric, the values of every run in rs.
func series(rs []*runResult) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range rs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// printSpread prints each end-to-end metric's median and quartiles over the
// repeats, and the interquartile spread as a share of the median.
func printSpread(rs []*runResult) {
	byWorkload := series(rs)
	fmt.Printf("\n%-14s %-24s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloadSpecs {
		for _, m := range endToEnd {
			v := byWorkload[w.Name][m.Name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Printf("%-14s %-24s %12.4f %12.4f %12.4f %8.4f %6.2f\n", w.Name, m.Name, q1, q2, q3, (q3-q1)/q2, m.Bound)
		}
	}
}

func readResults(path string) ([]*runResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*runResult
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// verdict judges one workload x end-to-end metric: a is the base's runs, b
// the candidate's. "worse" when the candidate's median is worse than the
// base's by more than the bound; "unresolved" when it is not, but the
// run-to-run spread of either side is wider than the bound and the
// candidate's runs are not all better than all of the base's; else "ok".
func verdict(m metricSpec, a, b []float64) (change, spread float64, v string) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	change = (bm - am) / am
	if m.Better == higher {
		change = -change
	}
	spread = max((aq3-aq1)/am, (bq3-bq1)/bm)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (m.Better == lower && y >= x) || (m.Better == higher && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case change > m.Bound:
		return change, spread, "worse"
	case spread > m.Bound && !allBetter:
		return change, spread, "unresolved"
	}
	return change, spread, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// relative change (positive = worse) and the bound. It returns 1 if any pair
// is worse.
func compareFiles(pathA, pathB string) int {
	ra, errA := readResults(pathA)
	rb, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(os.Stdout, ra, rb)
}

func compareResults(w *os.File, ra, rb []*runResult) int {
	a, b := series(ra), series(rb)
	code := 0
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "base", "candidate", "change", "spread", "bound", "verdict")
	for _, ws := range workloadSpecs {
		for _, m := range endToEnd {
			va, vb := a[ws.Name][m.Name], b[ws.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-24s %s\n", ws.Name, m.Name, "missing on one side")
				code = 1
				continue
			}
			change, spread, v := verdict(m, va, vb)
			if v == "worse" {
				code = 1
			}
			_, am, _ := quartiles(va)
			_, bm, _ := quartiles(vb)
			fmt.Fprintf(w, "%-14s %-24s %12.4f %12.4f %+8.4f %8.4f %6.2f  %s\n", ws.Name, m.Name, am, bm, change, spread, m.Bound, v)
		}
	}
	for _, r := range append(append([]*runResult(nil), ra...), rb...) {
		if !r.Correct {
			fmt.Fprintf(w, "%s (seed %d): %d of %d answers wrong: %s\n", r.Workload, r.Seed, r.Failed, r.Attempted, strings.Join(r.Violations, "; "))
			code = 1
		}
	}
	return code
}
