package check_test

// The paper's theorems as statistical tests: each claim is measured across
// the standing seed policy and asserted against calibrated finite-size
// bounds (constants chosen with ~50% headroom over the observed worst case
// at the tested sizes, so genuine regressions trip the assertions while
// seed-to-seed noise does not). See EXPERIMENTS.md, "Statistical
// methodology".

import (
	"context"
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/run"
	"repro/internal/trace"
)

// replications is the standing replication count for theorem checks.
const replications = 8

// runSample measures one execution, requiring full dissemination.
func runSample(t *testing.T, algo string, n int, measure func(res trace.Result) float64) check.Sample {
	t.Helper()
	return func(seed uint64) (float64, error) {
		res, err := run.Execute(context.Background(), run.Spec{N: n, Algorithm: algo, Seed: seed, Workers: 1})
		if err != nil {
			return 0, err
		}
		if !res.AllInformed {
			t.Errorf("%s n=%d seed=%d informed only %d/%d", algo, n, seed, res.Informed, res.Live)
		}
		return measure(res), nil
	}
}

// totalMessages is the payload-plus-control message count of a result.
func totalMessages(res trace.Result) float64 {
	return float64(res.Messages + res.ControlMessages)
}

// TestCluster2RoundsLogarithmicWHP: Theorem 2 gives O(log log n) rounds
// w.h.p.; the check asserts the (weaker, implied) O(log n) form named in the
// verification plan — every replication completes within C·log2 n rounds —
// plus the sharper scaling signal that rounds-per-log2 n does not grow
// with n (it shrinks under the true log log behavior).
func TestCluster2RoundsLogarithmicWHP(t *testing.T) {
	const c = 8 // observed max ratio ≈ 5.5 at n=1000
	perLog := make(map[int]float64)
	for _, n := range []int{1000, 10000} {
		r, err := check.Replicate("cluster2 completion rounds", check.Seeds(replications),
			runSample(t, run.AlgoCluster2, n, func(res trace.Result) float64 {
				return float64(res.CompletionRound)
			}))
		if err != nil {
			t.Fatal(err)
		}
		t.Log(r)
		logN := math.Log2(float64(n))
		r.AssertMaxBelow(t, c*logN)
		perLog[n] = r.Summary.Mean / logN
	}
	if perLog[10000] > perLog[1000]*1.15 {
		t.Errorf("rounds per log2 n grew with n (%.2f -> %.2f): not O(log n)",
			perLog[1000], perLog[10000])
	}
}

// TestClusterPushPullMessageComplexity: Theorem 18 bounds ClusterPUSH-PULL's
// traffic by O(n·(log log n + log n / log Δ)) messages; with the default
// Δ = 1024 the in-expectation check asserts the confidence interval stays
// below the calibrated curve (observed ratio ≈ 13 at the tested sizes).
func TestClusterPushPullMessageComplexity(t *testing.T) {
	const c = 30
	for _, n := range []int{1000, 10000} {
		r, err := check.Replicate("clusterpushpull total messages", check.Seeds(replications),
			runSample(t, run.AlgoClusterPushPull, n, totalMessages))
		if err != nil {
			t.Fatal(err)
		}
		t.Log(r)
		logN := math.Log2(float64(n))
		curve := float64(n) * (math.Log2(logN) + logN/math.Log2(1024))
		r.AssertCIBelow(t, c*curve)
		r.AssertMaxBelow(t, 1.5*c*curve)
	}
}

// TestCluster2ConstantMessagesPerNode: the second half of Theorem 2 — O(1)
// messages per node on average. Across a decade of n the per-node message
// count must not grow (observed ≈ 25.8 at both sizes).
func TestCluster2ConstantMessagesPerNode(t *testing.T) {
	perNode := make(map[int]float64)
	for _, n := range []int{1000, 10000} {
		r, err := check.Replicate("cluster2 messages per node", check.Seeds(replications),
			runSample(t, run.AlgoCluster2, n, totalMessages))
		if err != nil {
			t.Fatal(err)
		}
		perNode[n] = r.Summary.Mean / float64(n)
	}
	t.Logf("messages per node: n=1000: %.2f, n=10000: %.2f", perNode[1000], perNode[10000])
	if perNode[10000] > perNode[1000]*1.15 {
		t.Errorf("messages per node grew with n (%.2f -> %.2f): not O(1) per node",
			perNode[1000], perNode[10000])
	}
	if perNode[10000] > 40 {
		t.Errorf("messages per node %.2f exceeds the calibrated constant 40", perNode[10000])
	}
}

// TestPushNeedsLogRounds: the Ω(log n) lower bound for uniform PUSH. The
// informed population can at most double per round, so completion before
// round log2 n is impossible — the bound holds for the minimum over any
// seeds, with no slack constant.
func TestPushNeedsLogRounds(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		r, err := check.Replicate("push completion rounds", check.Seeds(replications),
			runSample(t, run.AlgoPush, n, func(res trace.Result) float64 {
				return float64(res.CompletionRound)
			}))
		if err != nil {
			t.Fatal(err)
		}
		t.Log(r)
		r.AssertMinAbove(t, math.Log2(float64(n)))
		// And in expectation PUSH pays the known ~log2 n + ln n rounds;
		// assert the mean keeps growing logarithmically (CI above 1.5·log2 n,
		// observed mean ratio ≈ 2.0).
		r.AssertCIAbove(t, 1.5*math.Log2(float64(n)))
	}
}

// TestReplicationMethodology exercises the layer itself: the interval
// narrows with more replications and the assertions fire on a planted
// violation (so a silently vacuous assertion cannot survive).
func TestReplicationMethodology(t *testing.T) {
	sample := func(seed uint64) (float64, error) { return float64(10 + seed%5), nil }
	small, err := check.Replicate("methodology", check.Seeds(5), sample)
	if err != nil {
		t.Fatal(err)
	}
	large, err := check.Replicate("methodology", check.Seeds(20), sample)
	if err != nil {
		t.Fatal(err)
	}
	if large.CI.HalfWidth() >= small.CI.HalfWidth() {
		t.Errorf("interval did not narrow: k=5 ±%.3f vs k=20 ±%.3f",
			small.CI.HalfWidth(), large.CI.HalfWidth())
	}
	probe := &testing.T{}
	large.AssertMaxBelow(probe, large.Summary.Max-1)
	if !probe.Failed() {
		t.Error("AssertMaxBelow did not fire on a planted violation")
	}
	probe = &testing.T{}
	large.AssertCIAbove(probe, large.CI.Lo+1)
	if !probe.Failed() {
		t.Error("AssertCIAbove did not fire on a planted violation")
	}
}
