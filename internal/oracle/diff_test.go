package oracle

import (
	"context"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/scenario"
)

// runDiffScript builds the pair for a script (poison on), attaches the
// Checker to the engine and requires a clean differential run and a clean
// invariant log — the same composition the fuzz target drives.
func runDiffScript(t *testing.T, sc Script) {
	t.Helper()
	net, orc, err := NewPair(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	checker := NewChecker()
	net.Observe(checker)
	if err := Compare(net, orc, sc); err != nil {
		t.Fatal(err)
	}
	if err := checker.Err(); err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
}

// TestEngineMatchesOracle runs the differential harness over deterministic
// scripts covering the static regime, loss, churn and the sharded engine
// (n above the 4096-node sharding threshold with several workers), each
// with the script's exchanges without content as pulls and kept as
// exchanges.
func TestEngineMatchesOracle(t *testing.T) {
	scripts := map[string]Script{
		"small-static": {N: 40, Rounds: 10, NetSeed: 1, ProtoSeed: 2, Workers: 1},
		"loss":         {N: 64, Rounds: 10, NetSeed: 3, ProtoSeed: 4, LossRate: 0.3, LossSeed: 9},
		"churn":        {N: 100, Rounds: 12, NetSeed: 5, ProtoSeed: 6, Churn: true, ChurnSeed: 7},
		"sharded":      {N: 5000, Rounds: 6, NetSeed: 8, ProtoSeed: 9, Workers: 8, Churn: true, ChurnSeed: 10, LossRate: 0.05, LossSeed: 11},
		"two-nodes":    {N: 2, Rounds: 8, NetSeed: 12, ProtoSeed: 13, Churn: true, ChurnSeed: 14},
		"high-loss":    {N: 30, Rounds: 8, NetSeed: 15, ProtoSeed: 16, LossRate: 0.95, LossSeed: 17},
		"shard-edges":  {N: 4097, Rounds: 6, NetSeed: 18, ProtoSeed: 19, Workers: 64, Churn: true, ChurnSeed: 20},
		// Over half the nodes are pulled in every round (churn seed 45 fails
		// few enough of them).
		"dense": {N: 3000, Rounds: 6, NetSeed: 41, ProtoSeed: 42, Workers: 4, Churn: true, ChurnSeed: 45, Dense: true},
		// Every round passes an initiator set of 1 to 1/64 of the nodes.
		"sparse":         {N: 300, Rounds: 14, NetSeed: 46, ProtoSeed: 47, Churn: true, ChurnSeed: 48, Sparse: true},
		"sparse-sharded": {N: 5000, Rounds: 10, NetSeed: 49, ProtoSeed: 50, Workers: 4, Churn: true, ChurnSeed: 51, LossRate: 0.1, LossSeed: 52, Sparse: true},
	}
	for name, sc := range scripts {
		t.Run(name, func(t *testing.T) {
			for _, empty := range []bool{false, true} {
				sc.EmptyExchanges = empty
				t.Run(formName(empty), func(t *testing.T) { runDiffScript(t, sc) })
			}
		})
	}
}

// formName names how a script's node with nothing to push calls: "calls"
// keeps its exchange, which carries an empty payload, and "intents" makes
// it a pull, as the Intent form's rule for a contentless exchange does.
func formName(emptyExchanges bool) string {
	if emptyExchanges {
		return "calls"
	}
	return "intents"
}

// brokenEngine wraps the real engine and injects one of the classic bugs the
// differential harness exists to catch. Mode "truncate" simulates an
// off-by-one in the inbox prefix pass (the last message of every inbox is
// lost); mode "delta" under-reports the round's Δ; mode "order" delivers the
// first inbox reversed.
type brokenEngine struct {
	*phonecall.Network
	mode string
}

func (b *brokenEngine) ExecCalls(
	callers phonecall.NodeSet,
	callOf func(i int) phonecall.Call,
	payloadOf func(i int) phonecall.Message,
	responseOf func(i int) (phonecall.Message, bool),
	deliver func(i int, inbox []phonecall.Message),
) phonecall.RoundReport {
	return b.report(b.Network.ExecCalls(callers, callOf, payloadOf, responseOf, b.deliver(deliver)))
}

// deliver seeds the inbox bugs into a delivery callback.
func (b *brokenEngine) deliver(deliver func(i int, inbox []phonecall.Message)) func(i int, inbox []phonecall.Message) {
	if deliver == nil {
		return nil
	}
	switch b.mode {
	case "truncate":
		return func(i int, inbox []phonecall.Message) {
			deliver(i, inbox[:len(inbox)-1])
		}
	case "order":
		return func(i int, inbox []phonecall.Message) {
			rev := make([]phonecall.Message, len(inbox))
			for k, m := range inbox {
				rev[len(inbox)-1-k] = m
			}
			deliver(i, rev)
		}
	}
	return deliver
}

// report seeds the Δ bug into a round report.
func (b *brokenEngine) report(rep phonecall.RoundReport) phonecall.RoundReport {
	if b.mode == "delta" && rep.MaxComms > 0 {
		rep.MaxComms--
	}
	return rep
}

// TestDiffCatchesSeededBugs proves the oracle is genuinely independent: an
// engine with a deliberately seeded bug — inbox off-by-one, wrong Δ, wrong
// delivery order — must diverge from the oracle under the same script that
// runs clean on the real engine, with exchanges without content as pulls or
// kept.
func TestDiffCatchesSeededBugs(t *testing.T) {
	for _, mode := range []string{"truncate", "delta", "order"} {
		t.Run(mode, func(t *testing.T) {
			for _, empty := range []bool{false, true} {
				sc := Script{N: 120, Rounds: 6, NetSeed: 21, ProtoSeed: 22, EmptyExchanges: empty}
				t.Run(formName(empty), func(t *testing.T) {
					net, orc, err := NewPair(sc, false)
					if err != nil {
						t.Fatal(err)
					}
					err = Compare(&brokenEngine{Network: net, mode: mode}, orc, sc)
					if err == nil {
						t.Fatalf("differential harness missed the seeded %q bug", mode)
					}
					t.Logf("caught: %v", err)
				})
			}
		})
	}
}

// TestScenarioDiffTimelines runs full scenario timelines — churn waves,
// loss changes, multi-rumor injection, all three steppable protocols —
// through scenario.Run and the oracle-side reference run.
func TestScenarioDiffTimelines(t *testing.T) {
	base := []scenario.Event{
		scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
		scenario.InjectRumor{At: 4, Node: 5, Rumor: 3},
		scenario.Loss{At: 3, Rate: 0.1, Seed: 5},
		scenario.CrashAt{At: 6, Nodes: []int{1, 2, 3, 17}},
		scenario.JoinAt{At: 12, Nodes: []int{1, 2}},
		scenario.Loss{At: 14, Rate: 0, Seed: 0},
	}
	for _, algo := range scenario.Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			sc := scenario.Scenario{
				Name:      "diff-" + string(algo),
				N:         300,
				Rounds:    20,
				Algorithm: algo,
				Events:    base,
			}
			if err := ScenarioDiff(sc, scenario.Config{Seed: 77, Workers: 3}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScenarioDiffShardedEngine crosses the scenario path with the sharded
// engine: n above the sharding threshold, several workers.
func TestScenarioDiffShardedEngine(t *testing.T) {
	sc := scenario.Scenario{
		Name:   "diff-sharded",
		N:      5000,
		Rounds: 10,
		Events: []scenario.Event{
			scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
			scenario.CrashAt{At: 4, Nodes: []int{0, 10, 20, 30, 40}},
			scenario.JoinAt{At: 7, Nodes: []int{0, 10}},
			scenario.Loss{At: 2, Rate: 0.2, Seed: 3},
		},
	}
	if err := ScenarioDiff(sc, scenario.Config{Seed: 5, Workers: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioDiffCatchesTampering sanity-checks the comparator itself: two
// different seeds must NOT compare equal (the deep comparison is not
// vacuously true).
func TestScenarioDiffCatchesTampering(t *testing.T) {
	sc := scenario.Scenario{
		Name:   "tamper",
		N:      200,
		Rounds: 12,
		Events: []scenario.Event{scenario.InjectRumor{At: 1, Node: 0, Rumor: 0}},
	}
	a, err := scenario.Run(context.Background(), sc, scenario.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := referenceScenarioRun(sc, scenario.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages == b.Messages && a.Bits == b.Bits {
		t.Fatal("different seeds produced identical traffic — comparator would be vacuous")
	}
	if err := ScenarioDiff(sc, scenario.Config{Seed: 1}); err != nil {
		t.Fatalf("clean scenario reported divergence: %v", err)
	}
}
