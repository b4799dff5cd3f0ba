package repro

import (
	"context"
	"errors"
	"testing"
)

// goldenBroadcasts pins Broadcast results bit-identical to the pre-redesign
// facade (values computed at the flat harness-backed Broadcast before the
// unified run layer was introduced). Any change here means the execution
// semantics — not just the API — changed. The cluster2 and clusterpushpull
// rows were regenerated once on purpose, when Cluster2's round budget dropped
// the rounds that carry no new information and members started leaving
// crashed leaders (DESIGN.md, "Cluster2's round budget"): the crash-and-loss
// row went from 1 to 3 411 of 3 600 live nodes informed. The push and pull
// rows pin the closed baselines' run on scenario.Algorithm.Step; the
// crash-and-loss pull row also pins its early exit, taken once every live
// node is informed.
var goldenBroadcasts = []struct {
	cfg       Config
	algorithm string
	rounds    int
	done      int
	messages  int64
	control   int64
	bits      int64
	maxComms  int
	informed  int
}{
	{Config{N: 4000, Algorithm: AlgoCluster2, Seed: 7},
		"cluster2", 41, 41, 36577, 16089, 2888461, 3999, 4000},
	{Config{N: 3000, Algorithm: AlgoClusterPushPull, Seed: 5, Delta: 64},
		"clusterpushpull", 69, 69, 98557, 59150, 8366537, 82, 3000},
	{Config{N: 2000, Algorithm: AlgoPushPull, Seed: 3},
		"push-pull", 26, 10, 76553, 13708, 21539868, 8, 2000},
	{Config{N: 2000, Algorithm: AlgoPush, Seed: 4},
		"push", 26, 21, 29884, 0, 8247984, 8, 2000},
	{Config{N: 2000, Algorithm: AlgoPull, Seed: 5},
		"pull", 15, 15, 1999, 20444, 1165044, 7, 2000},
	{Config{N: 3000, Algorithm: AlgoPull, Seed: 6, Failures: 300, FailureSeed: 8, LossRate: 0.05, LossSeed: 9},
		"pull", 20, 20, 2699, 39185, 2001543, 7, 2700},
	{Config{N: 5000, Algorithm: AlgoCluster1, Seed: 9, Failures: 500, FailureSeed: 13},
		"cluster1", 26, 26, 58958, 29792, 4771026, 4499, 4500},
	{Config{N: 4000, Algorithm: AlgoCluster2, Seed: 11, Failures: 400, FailureSeed: 21,
		FailureRound: 5, LossRate: 0.05, LossSeed: 31},
		"cluster2", 35, 35, 21240, 7038, 1907736, 3410, 3411},
	{Config{N: 2500, Algorithm: AlgoKarp, Seed: 2, PayloadBits: 1024},
		"karp-median-counter", 20, 10, 57007, 18764, 59779547, 8, 2500},
}

func TestBroadcastGolden(t *testing.T) {
	for _, g := range goldenBroadcasts {
		res, err := Broadcast(g.cfg)
		if err != nil {
			t.Fatalf("%+v: %v", g.cfg, err)
		}
		if res.Algorithm != g.algorithm || res.Rounds != g.rounds ||
			res.CompletionRound != g.done || res.Messages != g.messages ||
			res.ControlMessages != g.control || res.Bits != g.bits ||
			res.MaxCommsPerRound != g.maxComms || res.Informed != g.informed {
			t.Errorf("Broadcast(%+v) drifted from the pre-redesign output:\n got  %+v\n want %+v",
				g.cfg, res, g)
		}
	}
}

// TestRunMatchesBroadcast pins the wrapper property: Run with the
// option-translated config returns the same Result as Broadcast.
func TestRunMatchesBroadcast(t *testing.T) {
	cfg := goldenBroadcasts[0].cfg
	fromBroadcast, err := Broadcast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cfg.N,
		WithAlgorithm(cfg.Algorithm),
		WithSeed(cfg.Seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "simulator" {
		t.Fatalf("default engine = %q, want simulator", rep.Engine)
	}
	a, b := fromBroadcast, rep.Result
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Bits != b.Bits ||
		a.Informed != b.Informed || a.MaxCommsPerRound != b.MaxCommsPerRound {
		t.Fatalf("Run and Broadcast diverge:\n%+v\n%+v", a, b)
	}
}

// TestRunOptionValidation exercises the typed-error boundary at the facade:
// every bad option combination surfaces as ErrInvalidConfig before anything
// runs.
func TestRunOptionValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		n    int
		opts []Option
	}{
		{"n too small", 1, nil},
		{"negative loss", 100, []Option{WithLoss(-0.5, 1)}},
		{"delta below minimum", 100, []Option{WithDelta(2)}},
		{"unknown algorithm", 100, []Option{WithAlgorithm("bogus")}},
		{"rumors without budget", 100, []Option{WithRumors(InjectRumor{At: 1, Node: 0, Rumor: 0})}},
		{"rumor id past uint32 space", 100, []Option{
			WithRounds(5), WithRumors(InjectRumor{At: 1, Node: 0, Rumor: 1 << 32})}},
		{"negative rumor id", 100, []Option{
			WithRounds(5), WithRumors(InjectRumor{At: 1, Node: 0, Rumor: -1})}},
		{"rumor id past bitmask on lock-step", 100, []Option{
			OnLockStep(TransportChannel), WithRounds(5),
			WithRumors(InjectRumor{At: 1, Node: 0, Rumor: 64})}},
		{"stream on simulator", 100, []Option{WithRumorStream(1, 16, 8)}},
		{"stream rate without total", 100, []Option{
			OnFreeRunning(0, 0), WithRumorStream(2, 0, 0)}},
		{"window without wide workload", 100, []Option{WithMaxInFlight(8)}},
		{"stream alongside inject events", 100, []Option{
			OnFreeRunning(0, 0), WithRumorStream(1, 16, 8), WithRounds(50),
			WithRumors(InjectRumor{At: 1, Node: 0, Rumor: 0})}},
		{"rumors on lock-step", 100, []Option{
			OnLockStep(TransportChannel), WithRounds(5),
			WithRumors(InjectRumor{At: 1, Node: 0, Rumor: 0})}},
		{"udp lock-step", 100, []Option{OnLockStep(TransportUDP)}},
		{"frame loss on simulator", 100, []Option{WithFrameLoss(0.5, 1)}},
		{"closed algorithm free-running", 100, []Option{
			OnFreeRunning(0, 0), WithAlgorithm(AlgoCluster2)}},
		{"crash outside network", 100, []Option{
			WithTimeline(CrashAt{At: 2, Nodes: []int{500}})}},
		{"bad scenario spec", 0, []Option{WithScenarioSpec([]byte(`{"bogus`))}},
		{"missing scenario file", 0, []Option{WithScenarioFile("/nonexistent/spec.json")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(ctx, tc.n, tc.opts...)
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("error not ErrInvalidConfig: %v", err)
			}
		})
	}
}

// TestRunCancellation pins the facade-level contract: cancelling the context
// stops a simulator run with the context's error.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, 2000,
		WithAlgorithm(AlgoCluster2),
		WithSeed(1),
		WithObserver(func(r RoundInfo) {
			if r.Round == 2 {
				cancel()
			}
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunScenarioSpecConflict pins the n-vs-spec conflict rule.
func TestRunScenarioSpecConflict(t *testing.T) {
	spec := []byte(`{"name":"t","n":300,"rounds":20,
		"events":[{"type":"inject","round":1,"node":0,"rumor":0}]}`)
	if _, err := Run(context.Background(), 400, WithScenarioSpec(spec)); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("conflicting n accepted (err=%v)", err)
	}
	rep, err := Run(context.Background(), 0, WithScenarioSpec(spec), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 300 || rep.Scenario != "t" || len(rep.Rumors) != 1 {
		t.Fatalf("spec not applied: %+v", rep.Result)
	}
}
