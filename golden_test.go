package repro

import (
	"context"
	"errors"
	"testing"
)

// goldenBroadcasts pins Run results bit-identical to the pre-redesign facade
// (values computed at the flat harness-backed one-shot broadcast call before
// the unified run layer was introduced, and kept when Run became the only
// runner). Any change here means the execution semantics — not just the API
// — changed. The cluster2 and clusterpushpull rows were regenerated once on
// purpose, when Cluster2's round budget dropped the rounds that carry no new
// information and members started leaving crashed leaders (DESIGN.md,
// "Cluster2's round budget"): the crash-and-loss row went from 1 to 3 411 of
// 3 600 live nodes informed. The push and pull rows pin the closed baselines'
// run on scenario.Algorithm.Step; the crash-and-loss pull row also pins its
// early exit, taken once every live node is informed.
var goldenBroadcasts = []struct {
	n         int
	opts      []Option
	algorithm string
	rounds    int
	done      int
	messages  int64
	control   int64
	bits      int64
	maxComms  int
	informed  int
}{
	{4000, []Option{WithAlgorithm(AlgoCluster2), WithSeed(7)},
		"cluster2", 41, 41, 36577, 16089, 2888461, 3999, 4000},
	{3000, []Option{WithAlgorithm(AlgoClusterPushPull), WithSeed(5), WithDelta(64)},
		"clusterpushpull", 69, 69, 98557, 59150, 8366537, 82, 3000},
	{2000, []Option{WithAlgorithm(AlgoPushPull), WithSeed(3)},
		"push-pull", 26, 10, 76553, 13708, 21539868, 8, 2000},
	{2000, []Option{WithAlgorithm(AlgoPush), WithSeed(4)},
		"push", 26, 21, 29884, 0, 8247984, 8, 2000},
	{2000, []Option{WithAlgorithm(AlgoPull), WithSeed(5)},
		"pull", 15, 15, 1999, 20444, 1165044, 7, 2000},
	{3000, []Option{WithAlgorithm(AlgoPull), WithSeed(6), WithFailures(300, 8), WithLoss(0.05, 9)},
		"pull", 20, 20, 2699, 39185, 2001543, 7, 2700},
	{5000, []Option{WithAlgorithm(AlgoCluster1), WithSeed(9), WithFailures(500, 13)},
		"cluster1", 26, 26, 58958, 29792, 4771026, 4499, 4500},
	{4000, []Option{WithAlgorithm(AlgoCluster2), WithSeed(11), WithFailures(400, 21),
		WithFailureRound(5), WithLoss(0.05, 31)},
		"cluster2", 35, 35, 21240, 7038, 1907736, 3410, 3411},
	{2500, []Option{WithAlgorithm(AlgoKarp), WithSeed(2), WithPayloadBits(1024)},
		"karp-median-counter", 20, 10, 57007, 18764, 59779547, 8, 2500},
}

func TestBroadcastGolden(t *testing.T) {
	for _, g := range goldenBroadcasts {
		rep, err := Run(context.Background(), g.n, g.opts...)
		if err != nil {
			t.Fatalf("%s n=%d: %v", g.algorithm, g.n, err)
		}
		if rep.Engine != "simulator" {
			t.Fatalf("default engine = %q, want simulator", rep.Engine)
		}
		res := rep.Result
		if res.Algorithm != g.algorithm || res.Rounds != g.rounds ||
			res.CompletionRound != g.done || res.Messages != g.messages ||
			res.ControlMessages != g.control || res.Bits != g.bits ||
			res.MaxCommsPerRound != g.maxComms || res.Informed != g.informed {
			t.Errorf("%s n=%d drifted from the pre-redesign output:\n got  %s %d %d %d %d %d %d %d\n want %s %d %d %d %d %d %d %d",
				g.algorithm, g.n,
				res.Algorithm, res.Rounds, res.CompletionRound, res.Messages, res.ControlMessages, res.Bits, res.MaxCommsPerRound, res.Informed,
				g.algorithm, g.rounds, g.done, g.messages, g.control, g.bits, g.maxComms, g.informed)
		}
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
