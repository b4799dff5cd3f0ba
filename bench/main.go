// Command bench is the repository's benchmark: four long workloads with a
// fixed repetition count and a fixed seed list, every timed operation one
// repro.Run call through the public facade. See README.md in this directory.
//
//	sh bench/run.sh --workload sim-cluster2-1m --seed 1 --seconds 15 --trace 0
//	sh bench/run.sh --workload live-stream-chan --seed 1 --seconds 15 --trace 1
//	sh bench/run.sh -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of the timed loop
// (--trace 0), or the per-layer metrics of one more, traced operation and of
// the layer drivers (--trace 1, needs the build tag `layers`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setUpReps is how often an untraced run sets up before its timed loop;
// setup_s is the median. The first set-up pays for process start and a cold
// heap, which makes it the noisiest single reading of the run.
const setUpReps = 3

// A traced run's untraced operations only give bench.trace_overhead its base
// (their median), so it sets up once and runs tracedOps of them, more while
// tracedBudget lasts when operations are short, and spends its time on the
// traced operation and the layer drivers instead.
const (
	tracedOps    = 3
	tracedBudget = 3 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "run seed S0; every generated input is a pure function of it")
	seconds := fs.Int("seconds", 15, "time budget of the timed loop; the workload's fixed minimum of operations always runs")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1 or a file path: per-layer metrics from a traced operation and the layer drivers, spans written to the file")
	quiet := fs.Bool("json", false, "print only the result line")
	out := fs.String("out", "", "append the result, tagged with workload and seed, to this file (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two result files written with -out: bench -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	traced := *trace != "0"
	traceFile := *trace
	if traceFile == "1" {
		traceFile = filepath.Join(".bench_build", "traces", w.name+".json")
	}
	if traced && !layersBuilt {
		fmt.Fprintln(os.Stderr, "bench: a traced run needs the layer drivers: build with -tags layers (bench/run.sh does)")
		return 2
	}

	setUps, r, budget := setUpReps, w.minOps, time.Duration(*seconds)*time.Second
	if traced {
		setUps, r, budget = 1, tracedOps, tracedBudget
	}
	info := func(format string, a ...any) {
		if !*quiet {
			fmt.Printf(format, a...)
		}
	}
	info("# bench %s: n=%d R>=%d W=%d set-ups=%d seeds=%d..%d (S0=%d) GOMAXPROCS=%d %s commit=%s trace=%v\n",
		w.name, w.n, r, w.warmup, setUps, *seed+1, *seed+uint64(w.seedCount), *seed,
		runtime.GOMAXPROCS(0), runtime.Version(), commit(), traced)

	s := newSession(&w, *seed)
	t, err := s.runTimed(setUps, r, budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	metrics := t.endToEnd()
	defs := endToEndDefs
	if traced {
		tr := newTracer()
		metrics, err = s.runTraced(tr, t)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		layers, err := layerMetrics(tr, &w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for k, v := range layers {
			metrics[k] = v
		}
		if err := tr.writeFile(traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write spans:", err)
			return 1
		}
		info("# spans: %d written to %s\n", len(tr.spans), traceFile)
		defs = nil
	}

	res := outcome{Correct: len(s.failures) == 0, Attempted: s.attempted, Failed: len(s.failures), Metrics: metrics}
	for _, f := range s.failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED", f)
	}
	info("# %d timed operations in %.2f s, cpu %.2f s; ref kernel %.2f ms before, %.2f ms after\n",
		len(t.walls), t.loopS, t.cpuS, t.refBefore, t.refAfter)
	printMetrics(info, metrics, defs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Traced: traced, outcome: res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// printMetrics prints every metric by name with its unit: the end-to-end
// metrics in their declared order, per-layer metrics sorted by name.
func printMetrics(info func(string, ...any), metrics map[string]metric, defs []metricDef) {
	names := make([]string, 0, len(metrics))
	if defs != nil {
		for _, d := range defs {
			names = append(names, d.name)
		}
	} else {
		for k := range metrics {
			names = append(names, k)
		}
		sort.Strings(names)
	}
	for _, k := range names {
		info("%-44s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}

// commit is the VCS revision the binary was built from, when the build saw
// one (a benchmark checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
