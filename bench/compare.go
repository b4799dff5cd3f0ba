package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. driver marks the
// per-layer rows that come from the layer drivers (layers.go, build tag
// `layers`) and not from the traced operation's public hooks.
type metricDef struct {
	name, unit, better string
	driver             bool
}

// endToEndDefs lists the end-to-end metrics in print order; the tests hold
// it equal to BENCHMARK.json.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_s", unit: "s", better: "lower"},
	{name: "rounds", unit: "rounds", better: "lower"},
	{name: "msgs_per_node", unit: "msgs", better: "lower"},
	{name: "bits_per_node", unit: "bits", better: "lower"},
	{name: "allocs_per_msg", unit: "allocs", better: "lower"},
	{name: "alloc_bytes_per_msg", unit: "B", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// record is one run's result as -out appends it: the result line tagged with
// what was run.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	outcome
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultSet is one result file: every end-to-end metric's values by workload,
// in file order, and the same values keyed by run seed.
type resultSet struct {
	values map[string]map[string][]float64
	bySeed map[string]map[string]map[uint64]float64
	failed int
}

// readRecords loads a result set. Traced runs carry no end-to-end metrics
// and are skipped.
func readRecords(path string) (resultSet, error) {
	rs := resultSet{
		values: map[string]map[string][]float64{},
		bySeed: map[string]map[string]map[uint64]float64{},
	}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		rs.failed += rec.Failed
		if rec.Traced {
			continue
		}
		if rs.values[rec.Workload] == nil {
			rs.values[rec.Workload] = map[string][]float64{}
			rs.bySeed[rec.Workload] = map[string]map[uint64]float64{}
		}
		for name, m := range rec.Metrics {
			rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], m.Value)
			if rs.bySeed[rec.Workload][name] == nil {
				rs.bySeed[rec.Workload][name] = map[uint64]float64{}
			}
			rs.bySeed[rec.Workload][name][rec.Seed] = m.Value
		}
	}
	return rs, sc.Err()
}

// exactMetrics are the count metrics a simulator workload must reproduce to
// the last digit for the same run seed; -compare holds two sets to that, on
// top of the (necessarily looser) BENCHMARK.json bound.
var exactMetrics = map[string]bool{"rounds": true, "msgs_per_node": true, "bits_per_node": true}

// drifted counts the run seeds both sets share on which an exact metric of a
// simulator workload differs.
func drifted(a, b map[uint64]float64) int {
	n := 0
	for seed, va := range a {
		if vb, ok := b[seed]; ok && va != vb {
			n++
		}
	}
	return n
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the driver uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// verdict compares set B against set A on one metric: worse when B's median
// is worse than A's by more than the bound, unresolved when either set's own
// quartile spread exceeds the bound (the sets cannot tell a change of that
// size from noise), ok otherwise.
func verdict(a, b []float64, better string, bound float64) (string, float64, float64, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	spread := (q3a - q1a) / ma
	if sb := (q3b - q1b) / mb; sb > spread {
		spread = sb
	}
	change := (mb - ma) / ma
	if better == "higher" {
		change = -change
	}
	switch {
	case spread > bound:
		return "unresolved", ma, mb, spread
	case change > bound:
		return "worse", ma, mb, spread
	}
	return "ok", ma, mb, spread
}

// runCompare prints, per workload and end-to-end metric, whether result set
// B is within the metric's BENCHMARK.json bound of result set A, and
// "drift:N" when a simulator workload's count differs on N shared seeds. It
// returns non-zero if any metric is not ok or any operation failed.
func runCompare(pathA, pathB string) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exact := map[string]bool{}
	for _, w := range workloads() {
		exact[w.name] = w.exact
	}
	bad := 0
	fmt.Printf("%-18s %-20s %-10s %14s %14s %9s %8s %6s\n", "workload", "metric", "verdict", "median A", "median B", "B vs A", "spread", "bound")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-18s %-20s %-10s\n", w.Name, m.Name, "missing")
				bad++
				continue
			}
			v, ma, mb, spread := verdict(va, vb, m.Better, m.Bound)
			if exact[w.Name] && exactMetrics[m.Name] {
				if n := drifted(a.bySeed[w.Name][m.Name], b.bySeed[w.Name][m.Name]); n > 0 {
					v = fmt.Sprintf("drift:%d", n)
				}
			}
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-18s %-20s %-10s %14.6g %14.6g %+8.2f%% %7.2f%% %5.1f%%  (n=%d,%d)\n",
				w.Name, m.Name, v, ma, mb, 100*(mb-ma)/ma, 100*spread, 100*m.Bound, len(va), len(vb))
		}
	}
	fmt.Printf("failed operations: A %d, B %d\n", a.failed, b.failed)
	if bad > 0 || a.failed+b.failed > 0 {
		return 1
	}
	return 0
}
