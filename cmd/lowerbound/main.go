// Command lowerbound explores the round-complexity lower bounds of the paper:
// the knowledge-graph feasibility bound of Theorem 3 and the log n / log Δ
// bound of Lemma 16.
//
// Example:
//
//	lowerbound -n 1000,100000,10000000 -seeds 5
//	lowerbound -n 1000000 -delta 256
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	sizes := fs.String("n", "1000,10000,100000,1000000", "comma-separated network sizes")
	seeds := fs.Int("seeds", 3, "number of random draws per size")
	delta := fs.Int("delta", 0, "if set, also print the Lemma 16 bound for this Δ")
	trace := fs.Bool("trace", false, "print the per-T feasibility trace for the first seed")
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

	fmt.Fprintf(w, "%-10s %-18s %-22s\n", "n", "0.99*log2 log2 n", "knowledge-graph min T")
	for _, n := range sizeList {
		sum := 0.0
		var firstTrace []repro.Feasibility
		for seed := 1; seed <= *seeds; seed++ {
			minT, tr := repro.LowerBoundTrace(n, uint64(seed))
			sum += float64(minT)
			if seed == 1 {
				firstTrace = tr
			}
		}
		mean := sum / float64(*seeds)
		fmt.Fprintf(w, "%-10d %-18.2f %-22.1f\n", n, repro.TheoreticalLowerBound(n), mean)
		if *trace {
			for _, f := range firstTrace {
				fmt.Fprintf(w, "    T=%d ecc=%d reach=%d possible=%v\n", f.T, f.Eccentricity, f.Reach, f.Possible)
			}
		}
		if *delta > 1 {
			fmt.Fprintf(w, "    Lemma 16 with Δ=%d: %.2f rounds\n", *delta, repro.DeltaLowerBound(n, *delta))
		}
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
