// Command gossip runs one gossip workload in the random phone call model with
// direct addressing and prints its round-, message- and bit-complexity, on
// any engine of repro.Run: -engine sim (the sharded simulator, the default;
// output identical for any -workers), lockstep (a goroutine per node
// exchanging wire frames, bit-identical to sim) or free (free-running round
// clocks over a lossy transport; -rumors streams rumors through a bounded
// window). A free run whose budget runs out prints its report, then fails.
//
// A JSON scenario spec (-spec, format in internal/scenario) supplies n, the
// round budget, algorithm, seed and a churn/loss/corruption/rumor timeline.
// Every flag set on the command line becomes one repro.Run option layered
// over it, so a flag the engine cannot honour is rejected, never ignored.
//
//	gossip -algo cluster2 -n 100000 -seed 7
//	gossip -spec examples/churn/spec.json
//	gossip -engine lockstep -algo cluster2 -n 1000
//	gossip -engine free -spec examples/byzantine/spec.json
//	gossip -engine free -n 64 -rumors 4096 -rate 64 -inflight 1024 -drop 0.02
//
// Two leading words select the sweeps instead of one workload: tables
// regenerates the reproduction tables E1–E12 of EXPERIMENTS.md (DESIGN.md
// §4), bounds the lower bounds of Theorem 3 and Lemma 16.
//
//	gossip tables -experiment E1,E2 -sizes 1000,10000 -seeds 5
//	gossip bounds -sizes 1000,1000000 -delta 256
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gossip:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "tables":
			return runTables(args[1:], w)
		case "bounds":
			return runBounds(args[1:], w)
		}
	}
	inv, err := parse(args)
	if err != nil {
		return err
	}
	if inv.metricsAddr == "" {
		if inv.metricsLinger != 0 {
			return errors.New("-metrics-linger needs -metrics-addr")
		}
		return inv.execute(w)
	}
	inv.metrics = repro.NewMetricsRegistry()
	ln, err := serveMetrics(inv.metricsAddr, inv.metrics)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(w, "metrics            serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
	if inv.metricsLinger > 0 {
		defer time.Sleep(inv.metricsLinger) // final-state scrapes
	}
	return inv.execute(w)
}

// runTables regenerates the reproduction tables E1–E12 recorded in
// EXPERIMENTS.md, one per experiment id, each trial through run.Execute —
// the execution layer of repro.Run. Every id and -b is checked before the
// first table runs.
func runTables(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gossip tables", flag.ContinueOnError)
	experiments := fs.String("experiment", "all", "comma-separated experiment ids (E1..E10, E12) or 'all'")
	payload := fs.Int("b", 256, "rumor size in bits")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "simulator engine shards per round (results are identical for any value)")
	sizes, seeds, err := parseSweep(fs, args, "1000,10000,100000")
	if err != nil {
		return err
	}
	if *payload < 0 {
		return fmt.Errorf("-b must not be negative, got %d", *payload)
	}
	ids := harness.ExperimentIDs()
	if *experiments != "all" {
		known := ids
		ids = strings.Split(*experiments, ",")
		for i, id := range ids {
			ids[i] = strings.ToUpper(strings.TrimSpace(id))
			if !slices.Contains(known, ids[i]) {
				return fmt.Errorf("unknown experiment %q (have %s or all)", id, strings.Join(known, ", "))
			}
		}
	}
	cfg := harness.SweepConfig{Sizes: sizes, Seeds: seeds, PayloadBits: *payload, Workers: *workers}
	for _, id := range ids {
		table, err := harness.RunExperiment(id, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, table.Render())
	}
	return nil
}

// runBounds prints the paper's round-complexity lower bounds: the
// knowledge-graph feasibility bound of Theorem 3, averaged over the seeds,
// and with -delta the log n / log Δ bound of Lemma 16.
func runBounds(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gossip bounds", flag.ContinueOnError)
	delta := fs.Int("delta", 0, "if set, also print the Lemma 16 bound for this Δ")
	trace := fs.Bool("trace", false, "print the per-T feasibility trace for the first seed")
	sizes, seeds, err := parseSweep(fs, args, "1000,10000,100000,1000000")
	if err != nil {
		return err
	}
	if *delta != 0 && *delta < 2 {
		return fmt.Errorf("-delta must be 0 (off) or at least 2, got %d", *delta)
	}
	fmt.Fprintf(w, "%-10s %-18s %-22s\n", "n", "0.99*log2 log2 n", "knowledge-graph min T")
	for _, n := range sizes {
		sum := 0.0
		var firstTrace []repro.Feasibility
		for _, seed := range seeds {
			minT, tr := repro.LowerBoundTrace(n, seed)
			sum += float64(minT)
			if seed == 1 {
				firstTrace = tr
			}
		}
		fmt.Fprintf(w, "%-10d %-18.2f %-22.1f\n", n, repro.TheoreticalLowerBound(n), sum/float64(len(seeds)))
		if *trace {
			for _, f := range firstTrace {
				fmt.Fprintf(w, "    T=%d ecc=%d reach=%d possible=%v\n", f.T, f.Eccentricity, f.Reach, f.Possible)
			}
		}
		if *delta != 0 {
			fmt.Fprintf(w, "    Lemma 16 with Δ=%d: %.2f rounds\n", *delta, repro.DeltaLowerBound(n, *delta))
		}
	}
	return nil
}

// parseSweep registers -sizes and -seeds, the sweep both tables and bounds
// run over, parses args and validates them: at least one size, every size at
// least 2, and -seeds at least 1, which selects the seeds 1..seeds.
func parseSweep(fs *flag.FlagSet, args []string, defaultSizes string) (sizes []int, seeds []uint64, err error) {
	sizeFlag := fs.String("sizes", defaultSizes, "comma-separated network sizes")
	seedFlag := fs.Int("seeds", 3, "number of seeds per size")
	if err := parseFlags(fs, args); err != nil {
		return nil, nil, err
	}
	if *seedFlag < 1 {
		return nil, nil, fmt.Errorf("-seeds must be at least 1, got %d", *seedFlag)
	}
	for _, part := range strings.Split(*sizeFlag, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, nil, fmt.Errorf("parse size %q: %w", part, err)
		}
		if v < 2 {
			return nil, nil, fmt.Errorf("size %d below the smallest network, 2", v)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, nil, fmt.Errorf("no sizes given")
	}
	for s := 1; s <= *seedFlag; s++ {
		seeds = append(seeds, uint64(s))
	}
	return sizes, seeds, nil
}

// parseFlags parses args into fs and rejects a positional argument, where
// flag parsing stops and which would otherwise go unread.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// invocation is one parsed command line: the repro.Run arguments, plus what
// the report shows that the Report itself does not carry.
type invocation struct {
	n         int
	opts      []repro.Option
	transport string // the live engines' transport, for the header
	failures  int

	metrics       *repro.MetricsRegistry // nil: no telemetry
	metricsAddr   string
	metricsLinger time.Duration
}

// parse maps the command line onto repro.Run options: the engine and the
// default seed first, the -spec over them, then one option per flag the user
// set. The configuration itself is validated by repro.Run alone.
func parse(args []string) (invocation, error) {
	fs := flag.NewFlagSet("gossip", flag.ContinueOnError)
	engine := fs.String("engine", "sim", "execution engine: sim, lockstep or free")
	specPath := fs.String("spec", "", "JSON scenario spec: n, round budget, algorithm, seed and timeline (set flags override it)")
	n := fs.Int("n", 1000, "number of nodes (a -spec fixes its own)")
	algo := fs.String("algo", "", "algorithm (default cluster2; push-pull for timelines and -engine free): "+strings.Join(repro.AlgorithmNames(), ", "))
	seed := fs.Uint64("seed", 1, "execution seed")
	payload := fs.Int("b", 256, "rumor size in bits")
	delta := fs.Int("delta", 1024, "per-round communication bound (clusterpushpull only)")
	failures := fs.Int("fail", 0, "number of nodes failed by an oblivious adversary")
	failSeed := fs.Uint64("failseed", 42, "adversary seed")
	workers := fs.Int("workers", 0, "simulator shards per round (0 = GOMAXPROCS; results are identical for any value)")
	topology := fs.String("topology", "", "JSON topology spec attributing the nodes (zones, latency, capacity, reputation)")
	policyPath := fs.String("policy", "", "JSON peer-selection policy over the -topology attributes")
	rounds := fs.Int("rounds", 0, "round budget of timelines and free runs (0 = the spec's, or derived from n)")
	skew := fs.Int("skew", 0, "max rounds a node runs ahead of the slowest (-engine free; 0 = default)")
	transport := fs.String("transport", "chan", "live transport: chan (in-process mesh) or udp (loopback sockets, -engine free)")
	drop := fs.Float64("drop", 0, "transport frame-loss probability (-engine free, chan transport)")
	dropSeed := fs.Uint64("dropseed", 99, "seed for the deterministic drop/jitter injection")
	latency := fs.Duration("latency", 0, "per-frame delivery latency (-engine free, chan transport)")
	jitter := fs.Duration("jitter", 0, "additional per-frame jitter bound (-engine free, chan transport)")
	rumors := fs.Int("rumors", 0, "stream this many rumors through the free-running runtime (-engine free)")
	rate := fs.Float64("rate", 0, "stream injection rate in rumors per frontier round (0 = 1)")
	inflight := fs.Int("inflight", 0, "in-flight rumor window: the -rumors stream's (0 = min(rumors, 1024)), or the simulator's rumor-set ledger for a -spec")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while the run executes (e.g. 127.0.0.1:9797)")
	metricsLinger := fs.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint up this long after the run finishes, so scrapers catch the final state")
	if err := parseFlags(fs, args); err != nil {
		return invocation{}, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	engineOpt, ok := map[string]repro.Option{
		"sim":      repro.OnSimulator(),
		"lockstep": repro.OnLockStep(""),
		"free":     repro.OnFreeRunning(*skew, 0),
	}[*engine]
	if !ok {
		return invocation{}, fmt.Errorf("unknown -engine %q (have sim, lockstep, free)", *engine)
	}
	// -skew reaches repro.Run only inside OnFreeRunning, so it is the one
	// flag the facade cannot reject on the other engines.
	if set["skew"] && *engine != "free" {
		return invocation{}, errors.New("-skew applies to -engine free only")
	}

	byFlag := map[string]func() repro.Option{
		"algo":      func() repro.Option { return repro.WithAlgorithm(repro.Algorithm(*algo)) },
		"seed":      func() repro.Option { return repro.WithSeed(*seed) },
		"b":         func() repro.Option { return repro.WithPayloadBits(*payload) },
		"delta":     func() repro.Option { return repro.WithDelta(*delta) },
		"fail":      func() repro.Option { return repro.WithFailures(*failures, *failSeed) },
		"failseed":  func() repro.Option { return repro.WithFailures(*failures, *failSeed) },
		"workers":   func() repro.Option { return repro.WithWorkers(*workers) },
		"topology":  func() repro.Option { return repro.WithTopologyFile(*topology) },
		"policy":    func() repro.Option { return repro.WithPolicyFile(*policyPath) },
		"rounds":    func() repro.Option { return repro.WithRounds(*rounds) },
		"transport": func() repro.Option { return repro.WithTransport(repro.Transport(*transport)) },
		"drop":      func() repro.Option { return repro.WithFrameLoss(*drop, *dropSeed) },
		"dropseed":  func() repro.Option { return repro.WithFrameLoss(*drop, *dropSeed) },
		"latency":   func() repro.Option { return repro.WithLinkDelay(*latency, *jitter) },
		"jitter":    func() repro.Option { return repro.WithLinkDelay(*latency, *jitter) },
		"rumors":    func() repro.Option { return repro.WithRumorStream(*rate, *rumors, *inflight) },
		"rate":      func() repro.Option { return repro.WithRumorStream(*rate, *rumors, *inflight) },
		"inflight":  func() repro.Option { return repro.WithMaxInFlight(*inflight) },
	}
	inv := invocation{
		n:             *n,
		opts:          []repro.Option{engineOpt, repro.WithSeed(*seed)},
		transport:     *transport,
		failures:      *failures,
		metricsAddr:   *metricsAddr,
		metricsLinger: *metricsLinger,
	}
	if *specPath != "" {
		inv.opts = append(inv.opts, repro.WithScenarioFile(*specPath))
		if !set["n"] {
			inv.n = 0 // adopt the spec's size
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if opt, ok := byFlag[f.Name]; ok {
			inv.opts = append(inv.opts, opt())
		}
	})
	return inv, nil
}

// execute runs the invocation and prints its report; only then does a
// blown free-run budget turn into an error.
func (inv invocation) execute(w io.Writer) error {
	rep, err := repro.Run(context.Background(), inv.n, append(inv.opts, repro.WithTelemetry(inv.metrics))...)
	if err != nil {
		return err
	}
	render(w, rep, inv)
	if rep.Engine == "free-running" && !rep.AllInformed {
		return fmt.Errorf("convergence budget exhausted: %d/%d live nodes informed after %d local rounds",
			rep.Informed, rep.Live, rep.Rounds)
	}
	return nil
}

// render prints every section the report carries; sections the run did not
// produce are left out.
func render(w io.Writer, rep repro.Report, inv invocation) {
	fmt.Fprintf(w, "engine             %s", rep.Engine)
	if rep.Engine != "simulator" {
		fmt.Fprintf(w, " over %s transport (%d node goroutines)", inv.transport, rep.N)
	}
	fmt.Fprintln(w)
	if rep.Scenario != "" {
		fmt.Fprintf(w, "scenario           %q\n", rep.Scenario)
	}
	fmt.Fprintf(w, "algorithm          %s\n", rep.Algorithm)
	fmt.Fprintf(w, "seed               %d\n", rep.Seed)
	fmt.Fprintf(w, "nodes              %d (live %d)\n", rep.N, rep.Live)
	fmt.Fprintf(w, "informed           %d (all informed: %v)\n", rep.Informed, rep.AllInformed)
	fmt.Fprintf(w, "rounds             %d (completion at round %d)\n", rep.Rounds, rep.CompletionRound)
	fmt.Fprintf(w, "messages           %d payload + %d control (%.2f per node)\n",
		rep.Messages, rep.ControlMessages, rep.MessagesPerNode)
	fmt.Fprintf(w, "bits               %d\n", rep.Bits)
	fmt.Fprintf(w, "max comms/round Δ  %d\n", rep.MaxCommsPerRound)
	fmt.Fprintf(w, "bits/node/payload  %.2f\n", float64(rep.Bits)/float64(rep.N)/float64(rep.PayloadBits))
	if inv.failures > 0 {
		fmt.Fprintf(w, "uninformed survivors %d (F = %d)\n", rep.UninformedSurvivors(), inv.failures)
	}
	if rep.RumorsInjected > 0 {
		fmt.Fprintf(w, "rumor stream       %d injected, %d converged, %d expired by GC, %d still active\n",
			rep.RumorsInjected, rep.RumorsConverged, rep.RumorsExpired, rep.RumorsActive)
		fmt.Fprintf(w, "backpressure       injection stalled on a full window for %d monitor pass(es)\n", rep.InjectionStalls)
		if rep.RumorsReseeded > 0 {
			fmt.Fprintf(w, "reseeded           %d rumor(s) whose every holder crashed\n", rep.RumorsReseeded)
		}
	}
	if rep.Drops > 0 {
		fmt.Fprintf(w, "frame drops        %d\n", rep.Drops)
	}
	if rep.SendFailures > 0 {
		fmt.Fprintf(w, "send failures      %d (frames not handed to the OS by %d node socket(s))\n",
			rep.SendFailures, len(rep.NodeSendFailures))
	}
	if rep.Wall > 0 {
		fmt.Fprintf(w, "wall time          %v\n", rep.Wall.Round(time.Millisecond))
	}
	if rep.UnfiredEvents > 0 {
		fmt.Fprintf(w, "warning            %d timeline event(s) never fired (past the final frontier)\n", rep.UnfiredEvents)
	}
	if rep.IgnoredEvents > 0 {
		fmt.Fprintf(w, "warning            %d timeline event(s) not honored by this transport\n", rep.IgnoredEvents)
	}

	if len(rep.Phases) > 0 {
		fmt.Fprintf(w, "\n%-28s %8s %12s %14s\n", "phase", "rounds", "messages", "bits")
		for _, p := range rep.Phases {
			fmt.Fprintf(w, "%-28s %8d %12d %14d\n", p.Name, p.Rounds, p.Messages, p.Bits)
		}
	}
	if len(rep.ScenarioPhases) > 0 {
		fmt.Fprintf(w, "\n%-10s %7s %12s %14s %6s  %s\n", "rounds", "live", "messages", "bits", "maxΔ", "informed")
	}
	for _, p := range rep.ScenarioPhases {
		if len(p.Events) > 0 {
			fmt.Fprintf(w, "event @%d: %s\n", p.FromRound, strings.Join(p.Events, "; "))
		}
		var informed []string
		for _, rc := range p.Informed {
			frac := 0.0
			if p.Live > 0 {
				frac = float64(rc.LiveInformed) / float64(p.Live)
			}
			informed = append(informed, fmt.Sprintf("r%d: %d (%.1f%%)", rc.Rumor, rc.LiveInformed, 100*frac))
		}
		fmt.Fprintf(w, "%-10s %7d %12d %14d %6d  %s\n", fmt.Sprintf("[%d,%d]", p.FromRound, p.ToRound),
			p.Live, p.Messages, p.Bits, p.MaxComms, strings.Join(informed, "  "))
	}
	if len(rep.Rumors) > 0 {
		fmt.Fprintln(w)
	}
	for _, ro := range rep.Rumors {
		completed := "never completed"
		if ro.CompletionRound > 0 {
			completed = fmt.Sprintf("completed at round %d", ro.CompletionRound)
		}
		fmt.Fprintf(w, "rumor %d (injected round %d): %d/%d live informed (%.1f%%), %s\n",
			ro.Rumor, ro.InjectRound, ro.LiveInformed, rep.Live, 100*ro.LiveFraction, completed)
	}
}

// serveMetrics binds addr before the run starts, so address errors surface
// first, and serves reg as /metrics next to the net/http/pprof handlers.
func serveMetrics(addr string, reg *repro.MetricsRegistry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // registered by net/http/pprof
	// Serve returns once the caller closes ln.
	go http.Serve(ln, mux)
	return ln, nil
}
