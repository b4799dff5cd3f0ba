package check_test

// The paper's theorems as statistical tests: each claim is measured across
// the standing seed policy and asserted against calibrated finite-size
// bounds (constants chosen with ~50% headroom over the observed worst case
// at the tested sizes, so genuine regressions trip the assertions while
// seed-to-seed noise does not). See EXPERIMENTS.md, "Statistical
// methodology".

import (
	"context"
	"fmt"
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
	const c = 8 // observed max ratio ≈ 3.6 at n=1000
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

// largeCells reports whether the expensive cells (n = 10⁶, the n = 10⁴
// success sweep) run: not under -short or the race detector. CI runs them in
// a dedicated non-race step.
func largeCells() bool { return !testing.Short() && !raceEnabled }

// sweepSizes is the n sweep of the sharp-form checks, with the replications
// per size: four decades, fewer seeds where a run costs seconds (one at
// n = 10⁶, where seeds 1–5 all complete Cluster2 in 46 rounds).
func sweepSizes() []struct{ n, seeds int } {
	sizes := []struct{ n, seeds int }{{1000, 32}, {10000, 16}, {100000, 3}}
	if largeCells() {
		sizes = append(sizes, struct{ n, seeds int }{1000000, 1})
	}
	return sizes
}

// sweepCell is one algorithm's measurements at one n of the sweep.
type sweepCell struct {
	n                      int
	perLogLog              check.Replication // CompletionRound ÷ log₂log₂ n
	rounds, msgs, bitsPerB float64           // means: rounds, msgs/node, bits/(n·b)
}

// sweep measures algo over sweepSizes, asserting every replication informs
// every node.
func sweep(t *testing.T, algo string) []sweepCell {
	t.Helper()
	var cells []sweepCell
	for _, size := range sweepSizes() {
		c := sweepCell{n: size.n}
		logLog := math.Log2(math.Log2(float64(size.n)))
		k := float64(size.seeds)
		r, err := check.Replicate(fmt.Sprintf("%s rounds/log2log2 n at n=%d", algo, size.n), check.Seeds(size.seeds),
			runSample(t, algo, size.n, func(res trace.Result) float64 {
				c.rounds += float64(res.CompletionRound) / k
				c.msgs += res.MessagesPerNode / k
				c.bitsPerB += float64(res.Bits) / float64(res.N*res.PayloadBits) / k
				return float64(res.CompletionRound) / logLog
			}))
		if err != nil {
			t.Fatal(err)
		}
		c.perLogLog = r
		t.Logf("%v; rounds %.1f, msgs/node %.2f, bits/(n·b) %.2f", r, c.rounds, c.msgs, c.bitsPerB)
		cells = append(cells, c)
	}
	return cells
}

// assertDecadeGrowth fails if a quantity grew by more than the factor limit
// from one decade of the sweep to the next.
func assertDecadeGrowth(t *testing.T, what string, cells []sweepCell, value func(sweepCell) float64, limit float64) {
	t.Helper()
	for k := 1; k < len(cells); k++ {
		prev, cur := value(cells[k-1]), value(cells[k])
		if cur > limit*prev {
			t.Errorf("%s grew %.2f -> %.2f from n=%d to n=%d, more than %.0f%% in a decade",
				what, prev, cur, cells[k-1].n, cells[k].n, 100*(limit-1))
		}
	}
}

// TestClusterRoundsDoublyLogarithmic: Theorem 2 (Cluster2) and Theorem 9
// (Cluster1) in their sharp form over n ∈ {10³, 10⁴, 10⁵, 10⁶}: every
// replication completes within C·log₂log₂ n rounds. For Cluster2 the mean of
// CompletionRound ÷ log₂log₂ n grows by at most 10 % per decade — an
// O(log n) algorithm's would grow 12–19 % — and the O(1) messages per node
// and O(nb) bits stay flat: msgs/node grows ≤ 10 % and bits/(n·b) ≤ 25 % per
// decade (message headers carry Θ(log n)-bit IDs, so bits/(n·b) creeps up
// while b = 256 is not ≫ log n). Cluster1 squares its clusters for the first
// time between n = 10⁵ and 10⁶, a one-iteration step of 9 rounds, so its
// per-decade growth is bounded by the sweep instead: its rounds grow slower
// than log₂ n. Constants follow the ~50 % headroom rule over the worst case
// observed at these sizes.
func TestClusterRoundsDoublyLogarithmic(t *testing.T) {
	t.Run("cluster2", func(t *testing.T) {
		// observed max: rounds/log₂log₂ n 15 (n = 10³), msgs/node 13.3,
		// bits/(n·b) 3.3
		cells := sweep(t, run.AlgoCluster2)
		for _, c := range cells {
			c.perLogLog.AssertMaxBelow(t, 22)
			if c.msgs > 20 || c.bitsPerB > 5 {
				t.Errorf("n=%d: msgs/node %.2f (bound 20), bits/(n·b) %.2f (bound 5)", c.n, c.msgs, c.bitsPerB)
			}
		}
		assertDecadeGrowth(t, "rounds/log2log2 n", cells, func(c sweepCell) float64 { return c.perLogLog.Summary.Mean }, 1.10)
		assertDecadeGrowth(t, "msgs/node", cells, func(c sweepCell) float64 { return c.msgs }, 1.10)
		assertDecadeGrowth(t, "bits/(n·b)", cells, func(c sweepCell) float64 { return c.bitsPerB }, 1.25)
	})
	t.Run("cluster1", func(t *testing.T) {
		// observed max: rounds/log₂log₂ n 8 (n = 10⁶)
		cells := sweep(t, run.AlgoCluster1)
		for _, c := range cells {
			c.perLogLog.AssertMaxBelow(t, 12)
		}
		first, last := cells[0], cells[len(cells)-1]
		if logRatio := math.Log2(float64(last.n)) / math.Log2(float64(first.n)); last.rounds >= logRatio*first.rounds {
			t.Errorf("rounds grew %.1f -> %.1f from n=%d to n=%d, as fast as log2 n (x%.2f)",
				first.rounds, last.rounds, first.n, last.n, logRatio)
		}
	})
}

// TestCluster2InformsEveryLiveNodeOverSeeds: Theorem 2's "with high
// probability" as a success rate — Cluster2 informs every live node on at
// least 198 of 200 seeds at n = 10³ and 10⁴, with no failures and with 10 %
// of the nodes failed by the oblivious adversary before the run.
func TestCluster2InformsEveryLiveNodeOverSeeds(t *testing.T) {
	const seeds, need = 200, 198
	sizes := []int{1000}
	if largeCells() {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		for _, failures := range []int{0, n / 10} {
			ok := 0
			for seed := uint64(1); seed <= seeds; seed++ {
				res, err := run.Execute(context.Background(), run.Spec{
					N: n, Algorithm: run.AlgoCluster2, Seed: seed, Workers: 1,
					Failures: failures, FailureSeed: seed + 1000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.AllInformed {
					ok++
				}
			}
			t.Logf("cluster2 n=%d failures=%d: every live node informed on %d/%d seeds", n, failures, ok, seeds)
			if ok < need {
				t.Errorf("cluster2 n=%d failures=%d: every live node informed on only %d/%d seeds, want >= %d",
					n, failures, ok, seeds, need)
			}
		}
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
// count must not grow (observed ≈ 13.0 at n=1000, 11.9 at n=10000).
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
