// Command benchtab regenerates the reproduction tables E1–E12 recorded in
// EXPERIMENTS.md (one table per claim of the paper, plus the E8 dynamic
// churn sweep, the E9 sim-vs-live comparison, the E10 Byzantine sweep and
// the E12 topology sweep; see DESIGN.md §4). Performance is measured
// elsewhere: `sh bench/run.sh` (BENCHMARK.json).
//
// Example:
//
//	benchtab                           # all experiments, default sweep
//	benchtab -experiment E1,E2         # selected experiments
//	benchtab -sizes 1000,10000,100000,1000000 -seeds 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	experiments := fs.String("experiment", "all", "comma-separated experiment ids (E1..E10, E12) or 'all'")
	sizes := fs.String("sizes", "1000,10000,100000", "comma-separated network sizes")
	seeds := fs.Int("seeds", 3, "number of seeds per configuration")
	payload := fs.Int("b", 256, "rumor size in bits")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "simulator engine shards per round (results are identical for any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	sizeList, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	var seedList []uint64
	for s := 1; s <= *seeds; s++ {
		seedList = append(seedList, uint64(s))
	}

	ids := repro.ExperimentIDs()
	if *experiments != "all" {
		ids = strings.Split(*experiments, ",")
	}
	for _, id := range ids {
		table, err := repro.Experiment(strings.TrimSpace(id), sizeList, seedList,
			repro.WithPayloadBits(*payload), repro.WithWorkers(*workers))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, table.Render())
	}
	return nil
}

// parseSizes parses a comma-separated list of network sizes.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("parse size %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
