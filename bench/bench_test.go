package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

const toyOps = 2

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(bf.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(names))
	}
	for i, w := range bf.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, names[i])
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, m := range bf.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// TestWorkloadsAtToySize runs every workload twice through the benchmark's
// own run shape and checks what the full-size runs rely on: validation
// passes, every metric is reported and non-zero, the simulator's counts
// repeat exactly, and the traced operation's spans form a tree that covers
// the operation.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range toyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]metric
			for i := range runs {
				s := newSession(&w, 11)
				timed, err := s.runTimed(2, toyOps, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.failures) > 0 {
					t.Fatalf("failed operations: %v", s.failures)
				}
				if want := 2*w.warmup + toyOps; s.attempted != want {
					t.Fatalf("attempted %d operations, want %d", s.attempted, want)
				}
				runs[i] = timed.endToEnd()
				for _, d := range endToEndDefs {
					m, ok := runs[i][d.name]
					if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %+v (reported %v), want a positive value in %s", d.name, m, ok, d.unit)
					}
				}
				if i == 0 {
					checkTraced(t, s, timed)
				}
			}
			if w.exact {
				for _, name := range []string{"rounds", "msgs_per_node", "bits_per_node"} {
					if a, b := runs[0][name].Value, runs[1][name].Value; a != b {
						t.Errorf("%s differs between two runs of the same seed: %v then %v", name, a, b)
					}
				}
			}
		})
	}
}

func checkTraced(t *testing.T, s *session, timed timed) {
	t.Helper()
	tr := newTracer()
	m, err := s.runTraced(tr, timed)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.failures) > 0 {
		t.Fatalf("traced operation failed: %v", s.failures)
	}
	if layersBuilt {
		layers, err := layerMetrics(tr, s.w)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range layers {
			m[k] = v
		}
	}
	tr.finish()
	for _, d := range perLayerDefs {
		if d.driver && !layersBuilt {
			continue
		}
		if got, ok := m[d.name]; !ok || got.Unit != d.unit {
			t.Errorf("per-layer metric %s = %+v (reported %v), want unit %s", d.name, got, ok, d.unit)
		}
	}
	// Whatever the workload, the rows of the layers it does not cross come
	// from the toy operations, so no hook-derived time reads 0.
	for _, d := range perLayerDefs {
		if !d.driver && (d.unit == "s" || d.unit == "ms") && d.name != "run.gc_pause_ms_per_op" && !(m[d.name].Value > 0) {
			t.Errorf("%s = %v, want a measured, positive time", d.name, m[d.name].Value)
		}
	}
	if c := m["bench.span_coverage"].Value; c < 0.9 || c > 1.0001 {
		t.Errorf("bench.span_coverage = %v, want within [0.9, 1]", c)
	}
	if len(tr.spans) < 4 {
		t.Fatalf("only %d spans recorded", len(tr.spans))
	}
	for _, sp := range tr.spans {
		if sp.EndNs < sp.StartNs {
			t.Errorf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		if sp.Parent < 1 || sp.Parent >= sp.ID {
			t.Fatalf("span %d (%s): parent %d does not resolve to an earlier span", sp.ID, sp.Name, sp.Parent)
		}
		p := tr.spans[sp.Parent-1]
		if p.Op != sp.Op {
			t.Errorf("span %d (%s) is in op %d, its parent in op %d", sp.ID, sp.Name, sp.Op, p.Op)
		}
		if sp.StartNs < p.StartNs || sp.EndNs > p.EndNs {
			t.Errorf("span %d (%s) [%d, %d] is outside its parent %s [%d, %d]",
				sp.ID, sp.Name, sp.StartNs, sp.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		if p.SelfNs < 0 {
			t.Errorf("span %d (%s) has negative self time %d", p.ID, p.Name, p.SelfNs)
		}
	}
}

func TestValidationRejectsTruncatedRoundBudget(t *testing.T) {
	for _, w := range toyWorkloads() {
		if w.name != "sim-scenario-many" {
			continue
		}
		w.roundBudget = 9 // the last rumors are injected in round 8
		s := newSession(&w, 11)
		if err := s.setUp(); err != nil {
			t.Fatal(err)
		}
		if len(s.failures) != 1 || !strings.Contains(s.failures[0], "never completed") {
			t.Fatalf("failures = %v, want one rumor that never completed", s.failures)
		}
	}
}

// TestCountsIgnoreTheTimeBudget: a time budget adds timing samples but never
// changes the count metrics, which come from the fixed first operations. The
// budget is sized from the first run's own pace, so the test does not depend
// on how fast the box is.
func TestCountsIgnoreTheTimeBudget(t *testing.T) {
	for _, w := range toyWorkloads() {
		if !w.exact {
			continue
		}
		fixed, err := newSession(&w, 11).runTimed(1, toyOps, 0)
		if err != nil {
			t.Fatal(err)
		}
		budget := time.Duration(4 * fixed.loopS * float64(time.Second))
		longer, err := newSession(&w, 11).runTimed(1, toyOps, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(fixed.walls) != toyOps || len(longer.walls) <= toyOps {
			t.Errorf("%s: %d and %d timed operations, want %d and more", w.name, len(fixed.walls), len(longer.walls), toyOps)
		}
		a, b := fixed.endToEnd(), longer.endToEnd()
		for _, name := range []string{"rounds", "msgs_per_node", "bits_per_node"} {
			if a[name].Value != b[name].Value {
				t.Errorf("%s: %s = %v without a budget, %v with one", w.name, name, a[name].Value, b[name].Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", steady, "lower", "ok"},
		{"slower", []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"faster", []float64{80, 81, 79, 80, 80}, "lower", "ok"},
		{"lower throughput", []float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{"noisy", []float64{60, 140, 100, 80, 120}, "lower", "unresolved"},
	}
	for _, c := range cases {
		if got, _, _, _ := verdict(steady, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
