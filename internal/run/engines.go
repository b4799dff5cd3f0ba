package run

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/live"
	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// This file is where a validated Spec meets the engines: the three functions
// Execute dispatches to build the network (or the free-running runtime) for
// the spec, apply its failures, loss, topology and timeline, and run the
// workload. Below them, scenario.Run builds its own network (bench/ also
// calls it directly), and live.NewFreeRun and live.NewPeerNode build a
// directory-only one: node IDs, random contacts and message sizes, never a
// round.

// The closed broadcast algorithms, by the names Spec.Algorithm takes.
const (
	AlgoPush            = string(scenario.AlgoPush)
	AlgoPull            = string(scenario.AlgoPull)
	AlgoPushPull        = string(scenario.AlgoPushPull)
	AlgoKarp            = "karp-median-counter"
	AlgoAddressBook     = "addressbook"
	AlgoNameDropper     = "name-dropper"
	AlgoCluster1        = "cluster1"
	AlgoCluster2        = "cluster2"
	AlgoClusterPushPull = "clusterpushpull"
)

// Algorithms returns every closed broadcast algorithm in comparison order.
func Algorithms() []string {
	return []string{
		AlgoPush, AlgoPull, AlgoPushPull, AlgoKarp, AlgoAddressBook,
		AlgoNameDropper, AlgoCluster1, AlgoCluster2, AlgoClusterPushPull,
	}
}

// workloadAlgo resolves the algorithm name the run will actually execute,
// defaults included — what the engines dispatch on and the label telemetry
// and traces carry.
func (s Spec) workloadAlgo() string {
	switch {
	case s.Algorithm != "":
		return s.Algorithm
	case s.Engine == EngineFreeRunning || s.multiRumor():
		return AlgoPushPull
	default:
		return AlgoCluster2
	}
}

// dispatch runs the spec's closed algorithm on the prepared network.
func dispatch(s Spec, net *phonecall.Network, sources []int) (trace.Result, error) {
	switch algo := s.workloadAlgo(); algo {
	case AlgoPush, AlgoPull, AlgoPushPull:
		return baseline.Uniform(net, sources, scenario.Algorithm(algo))
	case AlgoKarp:
		return baseline.MedianCounter(net, sources)
	case AlgoAddressBook:
		return baseline.AddressBook(net, sources)
	case AlgoNameDropper:
		res, err := baseline.NameDropper(net, sources)
		return res.Result, err
	case AlgoCluster1:
		return core.Cluster1(net, sources)
	case AlgoCluster2:
		return core.Cluster2(net, sources)
	case AlgoClusterPushPull:
		delta := s.Delta
		if delta <= 0 {
			delta = 1024
		}
		return core.ClusterPushPull(net, sources, delta)
	default:
		return trace.Result{}, fmt.Errorf("run: unknown algorithm %q", algo)
	}
}

// failureEvents maps the Failures/FailureRound fields onto the shapes the
// engines consume — the nodes to fail before round 1, or a CrashAt wave at
// FailureRound appended to the timeline — and returns the timeline as a copy
// the caller may extend.
func (s Spec) failureEvents() (start []int, events []scenario.Event) {
	events = append([]scenario.Event(nil), s.Events...)
	if s.Failures <= 0 {
		return nil, events
	}
	nodes := failure.Random{Count: s.Failures, Seed: s.FailureSeed}.Select(s.N)
	if s.FailureRound > 1 {
		return nil, append(events, scenario.CrashAt{At: s.FailureRound, Nodes: nodes})
	}
	return nodes, events
}

// steppableEvents is the timeline of the steppable drivers (scenario,
// free-running), which have no start-time adversary and no loss knob of
// their own: round-1 crash and loss events are the equivalent shapes.
func (s Spec) steppableEvents() []scenario.Event {
	start, events := s.failureEvents()
	if start != nil {
		events = append(events, scenario.CrashAt{At: 1, Nodes: start})
	}
	if s.LossRate > 0 {
		events = append(events, scenario.Loss{At: 1, Rate: s.LossRate, Seed: s.LossSeed})
	}
	return events
}

// transport builds the live engines' transport. Validate has already
// confined lock-step to the plain synchronous mesh (no udp, no frame loss,
// no link delay).
func (s Spec) transport() (live.Transport, error) {
	if s.Transport == "udp" {
		return live.NewUDPTransport(s.N)
	}
	return live.NewChannelTransport(s.N, live.ChannelConfig{
		Drop: s.Drop, DropSeed: s.DropSeed,
		Latency: s.Latency, Jitter: s.Jitter,
	})
}

// runClosed executes a closed broadcast algorithm on a fresh network: on the
// sharded simulator engine, or — lock-step — with every node running as its
// own goroutine over the live transport in barrier-synchronized rounds,
// installed as the network's executor. The two are bit-identical for the same
// spec (the conformance guarantee of internal/live). A done ctx aborts
// between rounds; the lock-step node goroutines are torn down before the
// error returns.
func runClosed(ctx context.Context, s Spec) (trace.Result, error) {
	cfg := phonecall.Config{N: s.N, Seed: s.Seed, PayloadBits: s.PayloadBits}
	if s.Engine == EngineSimulator {
		cfg.Workers = s.Workers
		if cfg.Workers <= 0 {
			cfg.Workers = runtime.GOMAXPROCS(0)
		}
	}
	net, err := phonecall.New(cfg)
	if err != nil {
		return trace.Result{}, fmt.Errorf("run: %w", err)
	}
	var ls *live.LockStep
	if s.Engine == EngineLockStep {
		tr, err := s.transport()
		if err != nil {
			return trace.Result{}, err
		}
		defer tr.Close()
		if ls, err = live.NewLockStep(net, tr); err != nil {
			return trace.Result{}, err
		}
		defer ls.Close()
	}
	res, err := runOnNetwork(ctx, net, s)
	if err != nil {
		return trace.Result{}, err
	}
	if ls != nil {
		if err := ls.Err(); err != nil {
			return trace.Result{}, fmt.Errorf("run: live runtime: %w", err)
		}
	}
	return res, nil
}

// runOnNetwork applies the spec's topology, observers, adversary, loss and
// timeline to a prepared network and runs the algorithm. The ctx abort
// (phonecall.SetContext) unwinds the algorithm's round loop between rounds
// and is converted back into the context's error here.
func runOnNetwork(ctx context.Context, net *phonecall.Network, s Spec) (res trace.Result, err error) {
	net.SetContext(ctx)
	defer phonecall.RecoverAbort(&err)
	if _, err := policy.Install(net, s.Topology, s.Policy); err != nil {
		return trace.Result{}, fmt.Errorf("run: %w", err)
	}
	if s.tap != nil {
		net.Observe(s.tap)
	}
	start, events := s.failureEvents()
	net.Fail(start...)
	if s.LossRate > 0 {
		net.SetLoss(s.LossRate, s.LossSeed)
	}
	var tl *scenario.Timeline
	if len(events) > 0 {
		tl = scenario.NewTimeline(events...)
		tl.Attach(net)
	}
	source, ok := failure.SurvivingSource(net, 0)
	if !ok {
		return trace.Result{}, fmt.Errorf("run: all nodes failed")
	}

	res, err = dispatch(s, net, []int{source})
	if err != nil {
		return trace.Result{}, err
	}
	if tl != nil {
		if tl.Err() != nil {
			return trace.Result{}, fmt.Errorf("run: timeline: %w", tl.Err())
		}
		// An event scheduled past the algorithm's last round never fired; a
		// "clean" result that silently skipped the requested dynamics would
		// be indistinguishable from surviving them.
		if rem := tl.Remaining(); rem > 0 {
			return trace.Result{}, fmt.Errorf(
				"run: %d timeline event(s) scheduled after the algorithm's final round (%d) never fired",
				rem, res.Rounds)
		}
	}
	return res, nil
}

// runScenario executes a multi-rumor timeline with the steppable protocols on
// the simulator's scenario driver.
func runScenario(ctx context.Context, s Spec) (trace.Result, error) {
	sc := scenario.Scenario{
		Name:        s.ScenarioName,
		N:           s.N,
		Rounds:      s.Rounds,
		Algorithm:   scenario.Algorithm(s.Algorithm),
		Events:      s.steppableEvents(),
		MaxInFlight: s.MaxInFlight,
	}
	cfg := scenario.Config{
		Seed:        s.Seed,
		PayloadBits: s.PayloadBits,
		Workers:     s.Workers,
		Observer:    s.tap.engineObserver(),
		Topology:    s.Topology,
		Policy:      s.Policy,
	}
	return scenario.Run(ctx, sc, cfg)
}

// freeBudget is the free-running per-node round budget: Spec.Rounds, or a
// generous Θ(log n) spread allowance. A rumor stream needs frontier rounds
// proportional to Total/Rate just to finish injecting, so its default budget
// adds that on top.
func (s Spec) freeBudget() int {
	if s.Rounds > 0 {
		return s.Rounds
	}
	budget := 60 + 8*bits.Len(uint(s.N))
	if s.StreamTotal > 0 {
		rate := s.StreamRate
		if rate <= 0 {
			rate = 1
		}
		budget += int(float64(s.StreamTotal)/rate) + 1
	}
	return budget
}

// runFree executes a steppable protocol on the free-running live runtime:
// local round clocks with bounded skew, convergence detected by the
// completion monitor, timeline events fired as the round frontier passes
// them. A done ctx stops every node goroutine promptly and returns the
// context's error.
func runFree(ctx context.Context, s Spec) (trace.Result, error) {
	sel, err := policy.Compile(s.N, s.Seed, s.Topology, s.Policy)
	if err != nil {
		return trace.Result{}, fmt.Errorf("run: %w", err)
	}
	tr, err := s.transport()
	if err != nil {
		return trace.Result{}, err
	}
	defer tr.Close()
	cfg := live.FreeRunConfig{
		N:           s.N,
		Seed:        s.Seed,
		Rounds:      s.freeBudget(),
		MaxSkew:     s.MaxSkew,
		Algorithm:   scenario.Algorithm(s.workloadAlgo()),
		PayloadBits: s.PayloadBits,
		Events:      s.steppableEvents(),
		Transport:   tr,
		OnFrontier:  s.tap.onFrontier(),
		Telemetry:   s.Telemetry,
	}
	if s.StreamTotal > 0 {
		cfg.Stream = &live.StreamConfig{
			Total:       s.StreamTotal,
			Rate:        s.StreamRate,
			MaxInFlight: s.MaxInFlight,
		}
	}
	if sel != nil { // a typed-nil *Selector must not shadow the uniform path
		cfg.PeerSelector = sel
	}
	fr, err := live.NewFreeRun(cfg)
	if err != nil {
		return trace.Result{}, err
	}
	res, err := fr.Run(ctx)
	if err != nil {
		return trace.Result{}, err
	}
	recordSendFailures(s.Telemetry, res.NodeSendFailures)
	return res, nil
}
