package main

import (
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// runOut runs the command line and returns what it printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

// mustRun runs the command line, fails the test on an error, and asserts
// every marker appears in the output.
func mustRun(t *testing.T, markers []string, args ...string) string {
	t.Helper()
	out, err := runOut(t, args...)
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Errorf("run %v: output missing %q:\n%s", args, m, out)
		}
	}
	return out
}

// writeFiles writes name → content into a temp dir and returns the paths.
func writeFiles(t *testing.T, files map[string]string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := map[string]string{}
	for name, data := range files {
		paths[name] = filepath.Join(dir, name)
		if err := os.WriteFile(paths[name], []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// tinySpec is a complete dynamic-network spec small enough for a smoke test:
// one rumor, a crash wave, a rejoin and a loss phase over 500 nodes.
const tinySpec = `{
  "name": "smoke",
  "n": 500,
  "rounds": 16,
  "algorithm": "push-pull",
  "seed": 3,
  "events": [
    {"type": "inject", "round": 1, "node": 0, "rumor": 0},
    {"type": "loss", "round": 2, "rate": 0.1, "seed": 7},
    {"type": "crash", "round": 5, "count": 50, "pick_seed": 11},
    {"type": "join", "round": 10, "count": 20, "pick_seed": 11}
  ]
}`

// zoneSpec schedules a zone outage and heal, which need a -topology.
const zoneSpec = `{
  "name": "zones",
  "n": 300,
  "rounds": 20,
  "algorithm": "push-pull",
  "seed": 5,
  "events": [
    {"type": "inject", "round": 1, "node": 0, "rumor": 0},
    {"type": "zone-outage", "round": 4, "zone": 1},
    {"type": "zone-heal", "round": 9, "zone": 1}
  ]
}`

// TestRunSmoke drives one tiny broadcast on the default simulator engine
// and asserts the complexity report, identical for any -workers value.
func TestRunSmoke(t *testing.T) {
	markers := []string{"engine             simulator", "algorithm          push-pull",
		"all informed: true", "rounds", "max comms/round Δ", "bits/node/payload"}
	one := mustRun(t, markers, "-algo", "push-pull", "-n", "300", "-workers", "1")
	four := mustRun(t, markers, "-algo", "push-pull", "-n", "300", "-workers", "4")
	if one != four {
		t.Errorf("output depends on -workers:\n%s\nvs\n%s", one, four)
	}
}

// TestRunPhaseTable asserts the closed algorithm's per-phase breakdown
// prints on both engines that run it, with identical counts.
func TestRunPhaseTable(t *testing.T) {
	markers := []string{"phase", "GrowInitialClusters", "UnclusteredNodesPull"}
	sim := mustRun(t, markers, "-algo", "cluster2", "-n", "400", "-seed", "2")
	ls := mustRun(t, markers, "-engine", "lockstep", "-algo", "cluster2", "-n", "400", "-seed", "2")
	_, simBody, _ := strings.Cut(sim, "\n")
	_, lsBody, _ := strings.Cut(ls, "\n")
	if simBody != lsBody {
		t.Errorf("lock-step report differs from the simulator's below the header:\n%s\nvs\n%s", sim, ls)
	}
}

// TestRunLockStepSmoke runs a closed algorithm on the goroutine-per-node
// runtime.
func TestRunLockStepSmoke(t *testing.T) {
	mustRun(t, []string{
		"engine             lock-step over chan transport (300 node goroutines)",
		"algorithm          cluster2", "all informed: true", "phase",
	}, "-engine", "lockstep", "-algo", "cluster2", "-n", "300", "-seed", "3")
}

// TestRunFreeSmoke runs the free-running engine under 5% frame loss.
func TestRunFreeSmoke(t *testing.T) {
	mustRun(t, []string{
		"engine             free-running over chan transport (400 node goroutines)",
		"algorithm          push-pull", "informed           400 (all informed: true)",
		"frame drops", "wall time",
	}, "-engine", "free", "-n", "400", "-drop", "0.05", "-seed", "2")
}

// TestRunFreeBudgetExhaustedPrintsReportThenFails pins the exit contract: a
// free run whose round budget cannot reach convergence prints its full
// partial report, and run returns a budget-exhausted error afterwards.
func TestRunFreeBudgetExhaustedPrintsReportThenFails(t *testing.T) {
	out, err := runOut(t, "-engine", "free", "-n", "400", "-rounds", "2", "-seed", "2")
	if err == nil || !strings.Contains(err.Error(), "convergence budget exhausted") {
		t.Fatalf("err = %v, want budget-exhausted", err)
	}
	for _, m := range []string{"all informed: false", "messages", "wall time"} {
		if !strings.Contains(out, m) {
			t.Errorf("partial report missing %q before the error:\n%s", m, out)
		}
	}
}

// TestRunSpecSmoke runs one spec on the simulator and the free-running
// engine through the same command: the simulator prints the per-phase trace
// and the rumor outcomes, the free run adopts the spec's n.
func TestRunSpecSmoke(t *testing.T) {
	p := writeFiles(t, map[string]string{"spec.json": tinySpec})
	mustRun(t, []string{
		`scenario           "smoke"`, "seed               3",
		"event @5: crash 50 nodes", "event @10: join 20 nodes",
		"rumor 0 (injected round 1)",
	}, "-spec", p["spec.json"], "-workers", "2")
	mustRun(t, []string{"(500 node goroutines)"}, "-engine", "free", "-spec", p["spec.json"], "-rounds", "120")
}

// TestRunSpecPayloadBits checks that bits/node/payload divides by the payload
// size the run used: the spec's when no -b is set, the flag's over it, and the
// default when neither sets one.
func TestRunSpecPayloadBits(t *testing.T) {
	p := writeFiles(t, map[string]string{
		"spec.json": tinySpec,
		"b64.json":  strings.Replace(tinySpec, `"seed": 3,`, `"seed": 3, "payload_bits": 64,`, 1),
	})
	perPayload := func(args ...string) (bits, perNode float64) {
		out := mustRun(t, []string{"bits/node/payload"}, args...)
		var n int
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) == 2 && f[0] == "bits":
				bits, _ = strconv.ParseFloat(f[1], 64)
			case len(f) >= 2 && f[0] == "nodes":
				n, _ = strconv.Atoi(f[1])
			case len(f) == 2 && f[0] == "bits/node/payload":
				perNode, _ = strconv.ParseFloat(f[1], 64)
			}
		}
		return bits / float64(n), perNode
	}
	for _, c := range []struct {
		b    float64
		args []string
	}{
		{256, []string{"-spec", p["spec.json"]}},
		{64, []string{"-spec", p["b64.json"]}},
		{32, []string{"-spec", p["b64.json"], "-b", "32"}},
	} {
		bitsPerNode, got := perPayload(c.args...)
		if want := bitsPerNode / c.b; bitsPerNode == 0 || math.Abs(got-want) > 0.01 {
			t.Errorf("%v: bits/node/payload %.2f, want %.2f (b = %v)", c.args, got, want, c.b)
		}
	}
}

// TestRunAlgoOverride checks that set flags override the spec's fields and
// unset ones leave them alone.
func TestRunAlgoOverride(t *testing.T) {
	p := writeFiles(t, map[string]string{"spec.json": tinySpec})
	mustRun(t, []string{"algorithm          pull", "seed               9", "nodes              500"},
		"-spec", p["spec.json"], "-algo", "pull", "-seed", "9", "-n", "500")
}

// TestRunFreeFromSpec drives churn and rumor injection from a spec on the
// free-running engine. "workers" is a simulator knob shared specs may carry;
// the free-running engine ignores it rather than reject the spec.
func TestRunFreeFromSpec(t *testing.T) {
	p := writeFiles(t, map[string]string{"spec.json": `{
	  "name": "live-smoke",
	  "n": 300,
	  "rounds": 120,
	  "algorithm": "push-pull",
	  "workers": 4,
	  "seed": 5,
	  "events": [
	    {"type": "inject", "round": 1, "node": 0, "rumor": 0},
	    {"type": "crash", "round": 4, "count": 20, "pick_seed": 11},
	    {"type": "join", "round": 12, "count": 20, "pick_seed": 11}
	  ]
	}`})
	mustRun(t, []string{"(300 node goroutines)", "all informed: true"}, "-engine", "free", "-spec", p["spec.json"])
}

// TestRunTopologyPolicy drives a zoned, policy-biased closed broadcast.
func TestRunTopologyPolicy(t *testing.T) {
	p := writeFiles(t, map[string]string{
		"topo.json":   `{"generator":"zones","zones":3}`,
		"policy.json": `{"weights":{"same_zone":3}}`,
	})
	mustRun(t, []string{"all informed: true"}, "-algo", "cluster2", "-n", "400", "-seed", "2",
		"-topology", p["topo.json"], "-policy", p["policy.json"])
}

// TestRunTopologyFlags runs a zone-outage spec under -topology/-policy.
func TestRunTopologyFlags(t *testing.T) {
	p := writeFiles(t, map[string]string{
		"spec.json":   zoneSpec,
		"topo.json":   `{"generator":"zones","zones":3}`,
		"policy.json": `{"mode":"permissive","weights":{"same_zone":2}}`,
	})
	mustRun(t, []string{"event @4: zone 1 outage", "event @9: zone 1 heals", "rumor 0 (injected round 1)"},
		"-spec", p["spec.json"], "-topology", p["topo.json"], "-policy", p["policy.json"])
}

// wantInvalidConfig runs each flag set and requires repro.Run to reject it
// as ErrInvalidConfig: the command keeps no configuration checks of its own.
func wantInvalidConfig(t *testing.T, cases [][]string) {
	t.Helper()
	for _, args := range cases {
		if _, err := runOut(t, args...); !errors.Is(err, repro.ErrInvalidConfig) {
			t.Errorf("run %v = %v, want ErrInvalidConfig", args, err)
		}
	}
}

// TestRunRejectsBadInput: every simulator configuration a flag set can get
// wrong is rejected by repro.Run as ErrInvalidConfig — including flags only
// the live engines honour, which are never silently dropped.
func TestRunRejectsBadInput(t *testing.T) {
	p := writeFiles(t, map[string]string{"policy.json": `{"weights":{"same_zone":3}}`})
	wantInvalidConfig(t, [][]string{
		{"-algo", "no-such-algo", "-n", "100"},
		{"-n", "1"},
		{"-n", "400", "-policy", p["policy.json"]},
		{"-n", "400", "-topology", "/nonexistent/topo.json"},
		{"-n", "400", "-topology", p["policy.json"]},
		{"-n", "200", "-rounds", "3"},
		{"-n", "200", "-rumors", "100"},
		{"-n", "200", "-transport", "udp"},
		{"-n", "200", "-latency", "1ms"},
	})
}

// TestRunRejectsBadSpec: a -spec that cannot be read, or that a set flag
// contradicts, is rejected as ErrInvalidConfig.
func TestRunRejectsBadSpec(t *testing.T) {
	p := writeFiles(t, map[string]string{"spec.json": tinySpec, "zones.json": zoneSpec})
	wantInvalidConfig(t, [][]string{
		{"-spec", "/nonexistent/spec.json"},
		{"-spec", p["spec.json"], "-algo", "no-such-proto"},
		{"-spec", p["spec.json"], "-n", "50"},
		{"-spec", p["zones.json"]},
		{"-engine", "free", "-spec", "/nonexistent/spec.json"},
	})
}

// TestRunRejectsBadLiveInput: the lock-step and free-running engines reject
// what they cannot honour — lock-step runs take no stream, window, budget,
// loss or UDP flags — as ErrInvalidConfig instead of ignoring it.
func TestRunRejectsBadLiveInput(t *testing.T) {
	p := writeFiles(t, map[string]string{"spec.json": tinySpec})
	wantInvalidConfig(t, [][]string{
		{"-engine", "free", "-transport", "bogus", "-n", "50"},
		{"-engine", "free", "-algo", "no-such-proto", "-n", "50"},
		{"-engine", "free", "-n", "50", "-rate", "4"},
		{"-engine", "free", "-n", "50", "-inflight", "8"},
		{"-engine", "lockstep", "-transport", "udp", "-n", "50"},
		{"-engine", "lockstep", "-drop", "0.5", "-n", "50"},
		{"-engine", "lockstep", "-spec", p["spec.json"]},
		{"-engine", "lockstep", "-algo", "no-such-algo", "-n", "50"},
		{"-engine", "lockstep", "-n", "200", "-rumors", "100", "-rounds", "3"},
		{"-engine", "lockstep", "-n", "200", "-rumors", "100"},
		{"-engine", "lockstep", "-n", "200", "-rate", "2"},
		{"-engine", "lockstep", "-n", "200", "-inflight", "8"},
		{"-engine", "lockstep", "-n", "200", "-rounds", "3"},
	})
}

// TestRunRejectsCommandLine pins the errors the command itself raises: flag
// syntax, a stray positional argument, the engine name and -skew — the one
// run setting only OnFreeRunning carries, so repro.Run cannot see it on the
// other engines.
func TestRunRejectsCommandLine(t *testing.T) {
	for _, row := range []struct {
		args []string
		want string
	}{
		{[]string{"-bogusflag"}, "bogusflag"},
		{[]string{"-engine", "bogus"}, "-engine"},
		{[]string{"-engine", "lockstep", "-n", "200", "-rumors", "100", "-rounds", "3", "-skew", "9"}, "-skew"},
		{[]string{"-n", "200", "-skew", "2"}, "-skew"},
		{[]string{"-n", "200", "tables"}, `"tables"`},
		{[]string{"tables", "E1"}, `"E1"`},
		{[]string{"bounds", "-sizes", "100", "x"}, `"x"`},
	} {
		if _, err := runOut(t, row.args...); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("run %v = %v, want an error naming %s", row.args, err, row.want)
		}
	}
}

// TestTablesRejectsBadInput pins that a seed count below 1 is an error
// rather than a silent fall-back to the default sweep's three seeds, and
// that an unparsable size, a size below 2, an unknown flag, an unknown or
// empty experiment id and a negative -b are refused — and refused before any
// table runs: no row prints anything, even when valid ids come first.
func TestTablesRejectsBadInput(t *testing.T) {
	for _, row := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "E4", "-sizes", "500", "-seeds", "0"}, "-seeds"},
		{[]string{"-experiment", "E4", "-sizes", "500", "-seeds", "-2"}, "-seeds"},
		{[]string{"-experiment", "E4", "-sizes", "500,x"}, "parse size"},
		{[]string{"-experiment", "E4", "-sizes", "500,1"}, "size 1"},
		{[]string{"-bogus"}, "bogus"},
		{[]string{"-experiment", "E0", "-sizes", "500", "-seeds", "1"}, `"E0"`},
		{[]string{"-experiment", "E1,E0", "-sizes", "500", "-seeds", "1"}, `"E0"`},
		{[]string{"-experiment", "E1,", "-sizes", "500", "-seeds", "1"}, `unknown experiment ""`},
		{[]string{"-experiment", "E4", "-sizes", "500", "-seeds", "1", "-b", "-1"}, "-b"},
	} {
		args := append([]string{"tables"}, row.args...)
		out, err := runOut(t, args...)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("run %v = %v, want an error naming %s", args, err, row.want)
		}
		if out != "" {
			t.Errorf("run %v printed before failing:\n%s", args, out)
		}
	}
}

// TestBoundsRejectsBadInput pins the error paths of the lower-bound
// exploration: an unparsable or empty size list, a size below 2, a seed count
// below 1 (which would print a NaN mean), a -delta that is neither 0 (off)
// nor at least 2, and an unknown flag.
func TestBoundsRejectsBadInput(t *testing.T) {
	for _, row := range []struct {
		args []string
		want string
	}{
		{[]string{"-sizes", "12,notanumber"}, "parse size"},
		{[]string{"-sizes", ","}, "no sizes"},
		{[]string{"-sizes", "100", "-seeds", "0"}, "-seeds"},
		{[]string{"-sizes", "100", "-seeds", "-2"}, "-seeds"},
		{[]string{"-sizes", "1,0,-3", "-seeds", "1", "-delta", "16"}, "size 1"},
		{[]string{"-sizes", "100,-3", "-seeds", "1"}, "size -3"},
		{[]string{"-sizes", "100", "-seeds", "1", "-delta", "-4"}, "-delta"},
		{[]string{"-sizes", "100", "-seeds", "1", "-delta", "1"}, "-delta"},
		{[]string{"-bogus"}, "bogus"},
	} {
		args := append([]string{"bounds"}, row.args...)
		if _, err := runOut(t, args...); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("run %v = %v, want an error naming %s", args, err, row.want)
		}
	}
}

// TestTablesSmoke regenerates one experiment table on a tiny sweep and
// asserts the rendered markers.
func TestTablesSmoke(t *testing.T) {
	mustRun(t, []string{"E1", "round complexity", "cluster2", "log2 n"},
		"tables", "-experiment", "E1", "-sizes", "500", "-seeds", "1")
}

// TestBoundsSmoke runs the lower-bound exploration at two small sizes and
// asserts the table header, the per-size rows and the optional Lemma 16 and
// trace outputs.
func TestBoundsSmoke(t *testing.T) {
	mustRun(t, []string{"knowledge-graph min T", "100", "1000", "Lemma 16 with Δ=16", "T="},
		"bounds", "-sizes", "100,1000", "-seeds", "2", "-delta", "16", "-trace")
}

// TestBoundsDefaultsOmitExtras checks that -delta and -trace output stay off
// by default.
func TestBoundsDefaultsOmitExtras(t *testing.T) {
	out := mustRun(t, nil, "bounds", "-sizes", "100", "-seeds", "1")
	if strings.Contains(out, "Lemma 16") {
		t.Errorf("Lemma 16 printed without -delta:\n%s", out)
	}
	if strings.Contains(out, "T=") {
		t.Errorf("feasibility trace printed without -trace:\n%s", out)
	}
}

// TestMetricsEndpoint serves a simulator and a free-running run on an
// ephemeral port and scrapes each afterwards: /metrics carries the run's
// series labeled with its engine (counters survive the run), a free-running
// run also exposes its informed and frontier gauges, and the pprof mux
// answers on the same listener.
func TestMetricsEndpoint(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		markers []string
	}{
		{[]string{"-algo", "push-pull", "-n", "400", "-seed", "2"}, []string{
			"# TYPE repro_messages_total counter",
			`repro_messages_total{algo="push-pull",engine="simulator"} `,
		}},
		{[]string{"-engine", "free", "-n", "400", "-seed", "2", "-drop", "0.05"}, []string{
			"# TYPE repro_messages_total counter",
			`repro_messages_total{algo="push-pull",engine="free-running"} `,
			"repro_informed_nodes ",
			"repro_frontier_round ",
		}},
	} {
		inv, err := parse(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		inv.metrics = repro.NewMetricsRegistry()
		ln, err := serveMetrics("127.0.0.1:0", inv.metrics)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if err := inv.execute(io.Discard); err != nil {
			t.Fatalf("run %v: %v", tc.args, err)
		}
		resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("content type %q", ct)
		}
		for _, m := range tc.markers {
			if !strings.Contains(text, m) {
				t.Errorf("run %v: exposition missing %q:\n%s", tc.args, m, text)
			}
		}
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if !strings.HasPrefix(line, "#") && len(strings.Fields(line)) != 2 {
				t.Errorf("unparseable exposition line %q", line)
			}
		}
		pp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		pp.Body.Close()
		if pp.StatusCode != http.StatusOK {
			t.Errorf("pprof cmdline status %d", pp.StatusCode)
		}
	}
}

// TestMetricsFlagValidation: a bad address fails before the run, and
// -metrics-linger without an endpoint is rejected.
func TestMetricsFlagValidation(t *testing.T) {
	if _, err := runOut(t, "-n", "50", "-metrics-addr", "256.0.0.1:bogus"); err == nil || !strings.Contains(err.Error(), "metrics endpoint") {
		t.Errorf("bad metrics address accepted (err=%v)", err)
	}
	if _, err := runOut(t, "-n", "50", "-metrics-linger", "5s"); err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Errorf("-metrics-linger without -metrics-addr accepted (err=%v)", err)
	}
}
