package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/run"
)

// TestAlgorithmConstantsMatchRegistry ties the Algo* constants, which are
// string literals so api/repro.txt shows their values, to the registry
// run.Execute dispatches on.
func TestAlgorithmConstantsMatchRegistry(t *testing.T) {
	consts := []string{
		string(AlgoPush), string(AlgoPull), string(AlgoPushPull), string(AlgoKarp), string(AlgoAddressBook),
		string(AlgoNameDropper), string(AlgoCluster1), string(AlgoCluster2), string(AlgoClusterPushPull),
	}
	if !reflect.DeepEqual(consts, run.Algorithms()) || !reflect.DeepEqual(AlgorithmNames(), run.Algorithms()) {
		t.Fatalf("Algo* constants %v / AlgorithmNames %v diverge from the run registry %v",
			consts, AlgorithmNames(), run.Algorithms())
	}
}

// broadcast runs one execution on the default simulator engine and returns
// its Result.
func broadcast(t *testing.T, n int, opts ...Option) Result {
	t.Helper()
	rep, err := Run(context.Background(), n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Result
}

func TestBroadcastDefaults(t *testing.T) {
	res := broadcast(t, 5000, WithSeed(1))
	if res.Algorithm != string(AlgoCluster2) {
		t.Fatalf("default algorithm = %s, want cluster2", res.Algorithm)
	}
	if !res.AllInformed {
		t.Fatalf("not all informed: %d/%d", res.Informed, res.Live)
	}
	if len(res.Phases) == 0 {
		t.Fatal("expected phase breakdown")
	}
}

func TestBroadcastRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), 1); err == nil {
		t.Fatal("N=1 should be rejected")
	}
	if _, err := Run(context.Background(), 100, WithAlgorithm("bogus")); err == nil {
		t.Fatal("unknown algorithm should be rejected")
	}
}

func TestBroadcastEveryAlgorithm(t *testing.T) {
	for _, algo := range Algorithms() {
		res := broadcast(t, 2000, WithSeed(2), WithAlgorithm(algo), WithDelta(64))
		if !res.AllInformed {
			t.Fatalf("%s informed %d/%d", algo, res.Informed, res.Live)
		}
	}
}

func TestBroadcastWithFailures(t *testing.T) {
	res := broadcast(t, 10000, WithSeed(3), WithFailures(1000, 7))
	if res.Live != 9000 {
		t.Fatalf("live = %d, want 9000", res.Live)
	}
	if res.UninformedSurvivors() > 50 {
		t.Fatalf("uninformed survivors = %d, want o(F) with F=1000", res.UninformedSurvivors())
	}
}

func TestBroadcastWithTimedFailuresAndLoss(t *testing.T) {
	// A crash wave mid-execution (round 5) instead of before round 0, plus
	// 5% per-call loss: the dynamic-network path through the facade.
	opts := []Option{WithSeed(3), WithFailures(1000, 7), WithFailureRound(5), WithLoss(0.05, 11)}
	res := broadcast(t, 10000, opts...)
	if res.Live != 9000 {
		t.Fatalf("live = %d, want 9000 after the wave", res.Live)
	}
	if res.Informed < 0 || res.Informed > res.Live {
		t.Fatalf("informed = %d out of range [0,%d]", res.Informed, res.Live)
	}
	// Reproducible: the wave and the loss pattern are part of the options.
	again := broadcast(t, 10000, opts...)
	if again.Informed != res.Informed || again.Rounds != res.Rounds {
		t.Fatalf("timed-failure broadcast not reproducible: %+v vs %+v", res, again)
	}
}

func TestBroadcastDeterministic(t *testing.T) {
	a := broadcast(t, 3000, WithSeed(11), WithAlgorithm(AlgoCluster1))
	b := broadcast(t, 3000, WithSeed(11), WithAlgorithm(AlgoCluster1), WithWorkers(8))
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Bits != b.Bits {
		t.Fatalf("same seed should give identical runs: %+v vs %+v", a, b)
	}
}

func TestLowerBoundHelpers(t *testing.T) {
	if TheoreticalLowerBound(1<<16) <= 0 {
		t.Fatal("theoretical bound should be positive")
	}
	if minT, _ := LowerBoundTrace(10000, 1); minT < 1 {
		t.Fatal("knowledge-graph bound should be at least 1 round")
	}
	if DeltaLowerBound(1<<20, 1<<10) != 2 {
		t.Fatalf("DeltaLowerBound(2^20, 2^10) = %v, want 2", DeltaLowerBound(1<<20, 1<<10))
	}
	if MinDelta < 2 {
		t.Fatal("MinDelta must be sensible")
	}
}

// TestAdversariesAcrossEngines is the cross-engine acceptance check for the
// Byzantine seam: the same corrupt timeline produces a bit-identical Report
// on the simulator and the lock-step runtime, and fires cleanly on the
// free-running runtime.
func TestAdversariesAcrossEngines(t *testing.T) {
	ctx := context.Background()
	const n = 400
	spam := CorruptAt{At: 2, Nodes: PickRandomNodes(n, 40, 7), Behavior: AdversarySpammer, Seed: 9}
	opts := []Option{WithAlgorithm(AlgoCluster2), WithSeed(4), WithTimeline(spam)}

	sim, err := Run(ctx, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := Run(ctx, n, WithAlgorithm(AlgoCluster2), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Bits == honest.Bits && sim.Rounds == honest.Rounds {
		t.Fatal("spam timeline left the run untouched — the corruption never fired")
	}

	ls, err := Run(ctx, n, append(append([]Option{}, opts...), OnLockStep(TransportChannel))...)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Engine != "lock-step" {
		t.Fatalf("engine = %q", ls.Engine)
	}
	if !reflect.DeepEqual(sim.Result, ls.Result) {
		t.Fatalf("adversarial run diverged across engines:\nsim:  %+v\nlock: %+v", sim.Result, ls.Result)
	}

	// Free-running: a steppable inject+corrupt timeline must fire every event
	// and still spread the rumor past the liar minority.
	liars := make([]int, 0, 30)
	for _, i := range PickRandomNodes(300, 31, 3) {
		if i != 0 && len(liars) < 30 {
			liars = append(liars, i)
		}
	}
	fr, err := Run(ctx, 300,
		WithAlgorithm(AlgoPushPull), WithSeed(6), OnFreeRunning(0, 0),
		WithTimeline(
			InjectRumor{At: 1, Node: 0, Rumor: 0},
			CorruptAt{At: 2, Nodes: liars, Behavior: AdversaryLiar, Seed: 3},
		))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Engine != "free-running" {
		t.Fatalf("engine = %q", fr.Engine)
	}
	if fr.IgnoredEvents != 0 {
		t.Fatalf("free-running ignored %d timeline events", fr.IgnoredEvents)
	}
	if fr.Informed < 300/2 {
		t.Fatalf("rumor barely spread under the liar minority: informed %d of %d live", fr.Informed, fr.Live)
	}
}

// TestRumorStreamFacade drives the continuous-injection service mode end to
// end through the public facade: WithRumorStream on the free-running engine
// injects, converges and garbage-collects every rumor, and the stream totals
// plus the rumor-set telemetry series surface on the Report.
func TestRumorStreamFacade(t *testing.T) {
	reg := NewMetricsRegistry()
	rep, err := Run(context.Background(), 32,
		WithSeed(5), OnFreeRunning(0, 0),
		WithRumorStream(4, 96, 24),
		WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "free-running" {
		t.Fatalf("engine = %q", rep.Engine)
	}
	if rep.RumorsInjected != 96 || rep.RumorsConverged != 96 || rep.RumorsExpired != 96 {
		t.Fatalf("stream totals off: %+v", rep)
	}
	if rep.RumorsActive != 0 || !rep.AllInformed {
		t.Fatalf("stream did not drain: %+v", rep)
	}
	var converged float64
	for _, s := range rep.Snapshot() {
		if s.Name == "repro_rumors_converged_total" {
			converged = s.Value
		}
	}
	if converged != 96 {
		t.Fatalf("repro_rumors_converged_total = %v, want 96", converged)
	}

	// The wide rumor-set path on the simulator accepts IDs past the bitmask.
	wide, err := Run(context.Background(), 64,
		WithAlgorithm(AlgoPushPull), WithSeed(8), WithRounds(80),
		WithRumors(
			InjectRumor{At: 1, Node: 0, Rumor: 1},
			InjectRumor{At: 2, Node: 3, Rumor: 4096},
		))
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Rumors) != 2 || !wide.AllInformed {
		t.Fatalf("wide simulator run incomplete: %+v", wide)
	}
	if wide.Rumors[1].Rumor != 4096 {
		t.Fatalf("wide rumor ID lost: %+v", wide.Rumors)
	}
}

// TestWithAdversaries covers the convenience option: happy path,
// reproducibility, and the typed error paths.
func TestWithAdversaries(t *testing.T) {
	ctx := context.Background()
	run := func() Report {
		t.Helper()
		rep, err := Run(ctx, 500,
			WithAlgorithm(AlgoPushPull), WithSeed(8), WithRounds(60),
			WithRumors(InjectRumor{At: 1, Node: 0, Rumor: 0}),
			WithAdversaries(AdversaryStale, 50, 13))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if len(rep.Rumors) != 1 || rep.Rumors[0].LiveInformed == 0 {
		t.Fatalf("adversarial run informed nobody: %+v", rep.Rumors)
	}
	if !reflect.DeepEqual(rep, run()) {
		t.Fatal("WithAdversaries run not reproducible")
	}
	// The option also composes with the closed baselines (no rumor tracker:
	// the stale minority degrades to mute).
	if _, err := Run(ctx, 300, WithAlgorithm(AlgoCluster2), WithSeed(2),
		WithAdversaries(AdversarySpammer, 30, 5)); err != nil {
		t.Fatal(err)
	}

	for name, opts := range map[string][]Option{
		"zero count":       {WithAdversaries(AdversaryLiar, 0, 1)},
		"negative count":   {WithAdversaries(AdversaryLiar, -3, 1)},
		"unknown behavior": {WithAdversaries(Adversary("gremlin"), 5, 1)},
		"unknown behavior in timeline": {WithTimeline(
			CorruptAt{At: 1, Nodes: []int{1}, Behavior: Adversary("x")})},
	} {
		_, err := Run(ctx, 100, opts...)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v is not ErrInvalidConfig", name, err)
		}
	}
}
