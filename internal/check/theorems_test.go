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
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/failure"
	"repro/internal/lowerbound"
	"repro/internal/run"
	"repro/internal/trace"
)

// replications is the standing replication count for theorem checks.
const replications = 8

// runSample measures one execution, requiring full dissemination.
func runSample(t *testing.T, algo string, n int, measure func(res trace.Result) float64) check.Sample {
	t.Helper()
	return specSample(t, run.Spec{N: n, Algorithm: algo}, measure)
}

// specSample is runSample for a spec that sets more than the algorithm and
// n; the sample fills in the seed and runs on one worker.
func specSample(t *testing.T, spec run.Spec, measure func(res trace.Result) float64) check.Sample {
	t.Helper()
	return func(seed uint64) (float64, error) {
		spec.Seed, spec.Workers = seed, 1
		res, err := run.Execute(context.Background(), spec)
		if err != nil {
			return 0, err
		}
		if !res.AllInformed {
			t.Errorf("%s n=%d seed=%d informed only %d/%d", spec.Algorithm, spec.N, seed, res.Informed, res.Live)
		}
		return measure(res), nil
	}
}

// completionRound is the round at which a result informed every live node.
func completionRound(res trace.Result) float64 { return float64(res.CompletionRound) }

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
			runSample(t, run.AlgoCluster2, n, completionRound))
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
			runSample(t, run.AlgoPush, n, completionRound))
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

// TestRoundLowerBound: Theorem 3 — no algorithm in the model informs every
// node in fewer than 0.99·log₂log₂ n rounds — checked against every
// algorithm of the E1 comparison rather than only E4's cluster2 column. For
// every seed the completion round is at least the knowledge-graph
// feasibility bound of that seed's contact draw (Lemma 14), and the sample
// minimum is at least the analytic bound.
func TestRoundLowerBound(t *testing.T) {
	algos := []string{run.AlgoPushPull, run.AlgoKarp, run.AlgoAddressBook, run.AlgoCluster1, run.AlgoCluster2}
	seeds := check.Seeds(replications)
	for _, n := range []int{1000, 10000} {
		minT := make(map[uint64]float64, len(seeds))
		for _, seed := range seeds {
			m, _ := lowerbound.MinRounds(n, seed)
			minT[seed] = float64(m)
		}
		for _, algo := range algos {
			sample := runSample(t, algo, n, completionRound)
			r, err := check.Replicate(fmt.Sprintf("%s completion rounds at n=%d", algo, n), seeds,
				func(seed uint64) (float64, error) {
					rounds, err := sample(seed)
					if err == nil && rounds < minT[seed] {
						t.Errorf("%s n=%d seed=%d completed in %.0f rounds, below the knowledge-graph bound %.0f",
							algo, n, seed, rounds, minT[seed])
					}
					return rounds, err
				})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(r)
			r.AssertMinAbove(t, lowerbound.TheoreticalMinRounds(n))
		}
	}
}

// TestBitsLinearInPayload: E3 — Theorem 2's O(n·b) total bits. For
// Cluster2, bits/(n·b) must not increase as the payload b grows over {256,
// 1024, 4096} at n ∈ {10³, 10⁴}, and at b = 4096 every replication stays
// under a constant (observed max 1.12). PUSH-PULL pays Θ(n·b·log n): at
// b = 4096 its smallest ratio must be at least 20× Cluster2's largest
// (observed ≥ 33×).
func TestBitsLinearInPayload(t *testing.T) {
	bitsPerB := func(res trace.Result) float64 { return float64(res.Bits) / float64(res.N*res.PayloadBits) }
	replicate := func(algo string, n, b int) check.Replication {
		r, err := check.Replicate(fmt.Sprintf("%s bits/(n·b) at n=%d b=%d", algo, n, b), check.Seeds(replications),
			specSample(t, run.Spec{N: n, Algorithm: algo, PayloadBits: b}, bitsPerB))
		if err != nil {
			t.Fatal(err)
		}
		t.Log(r)
		return r
	}
	for _, n := range []int{1000, 10000} {
		var c2 check.Replication
		for k, b := range []int{256, 1024, 4096} {
			r := replicate(run.AlgoCluster2, n, b)
			if k > 0 && r.Summary.Mean > c2.Summary.Mean {
				t.Errorf("cluster2 n=%d: bits/(n·b) rose from %.2f to %.2f as b grew to %d",
					n, c2.Summary.Mean, r.Summary.Mean, b)
			}
			c2 = r
		}
		c2.AssertMaxBelow(t, 1.7)
		pp := replicate(run.AlgoPushPull, n, 4096)
		if pp.Summary.Min < 20*c2.Summary.Max {
			t.Errorf("n=%d b=4096: push-pull bits/(n·b) %.2f is under 20x cluster2's %.2f",
				n, pp.Summary.Min, c2.Summary.Max)
		}
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

// TestClusterPushPullDeltaTradeoff: E5 as an assertion — Theorem 4 and
// Lemma 16. ClusterPUSH-PULL over Δ ∈ {64, 256, 1024} informs every live node
// on every seed; the broadcast phase that runs on top of the Δ-clustering
// takes at least Lemma 16's log n / log Δ rounds and at most a calibrated
// constant times ⌈log n / log Δ⌉; and no node takes part in more than O(Δ)
// communications in a round — Theorem 4's form, since the observed maximum
// exceeds Δ itself. Observed worst case: 10 broadcast rounds per
// ⌈log n / log Δ⌉ (n = 10³, Δ = 1024), maxΔ/Δ 1.64 here and 1.92 in E5 at
// n = 10⁴; the constants follow the ~50 % headroom rule over those.
func TestClusterPushPullDeltaTradeoff(t *testing.T) {
	const roundsC, commsC = 15, 3
	broadcastRounds := func(res trace.Result) float64 {
		for _, p := range res.Phases {
			if p.Name == "ClusterPUSH-PULL" {
				return float64(p.Rounds)
			}
		}
		t.Fatalf("n=%d: no ClusterPUSH-PULL phase", res.N)
		return 0
	}
	sizes := []int{1000}
	if largeCells() {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		for _, delta := range []int{64, 256, 1024} {
			maxComms := 0
			spec := run.Spec{N: n, Algorithm: run.AlgoClusterPushPull, Delta: delta}
			r, err := check.Replicate(fmt.Sprintf("clusterpushpull broadcast rounds at n=%d Δ=%d", n, delta),
				check.Seeds(replications), specSample(t, spec, func(res trace.Result) float64 {
					maxComms = max(maxComms, res.MaxCommsPerRound)
					return broadcastRounds(res)
				}))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v; maxΔ/Δ %.2f", r, float64(maxComms)/float64(delta))
			r.AssertMinAbove(t, lowerbound.DeltaBound(n, delta))
			r.AssertMaxBelow(t, roundsC*math.Ceil(math.Log2(float64(n))/math.Log2(float64(delta))))
			if maxComms > commsC*delta {
				t.Errorf("n=%d Δ=%d: a node took part in %d communications in one round, above %d·Δ",
					n, delta, maxComms, commsC)
			}
		}
	}
}

// TestClusterFaultToleranceUninformedOverF: E6 as an assertion — Theorem 19.
// An oblivious adversary fails F = f·n nodes, f ∈ {0.01, 0.05, 0.10, 0.20},
// either before round 0 (Section 8) or in a crash wave at round 5, the
// failure seed drawn as E6 draws it (seed + 1000). On every seed whose
// source survives, at most 1 % of F live nodes stay uninformed, and the mean
// uninformed/F does not grow with F. Cluster2 holds the rumor at the source
// alone until ClusterShare, so a wave that crashes the source loses the
// rumor outright: a run ends with no node informed exactly when the crash
// set contains the source. The start-time adversary never does — the run
// picks a surviving source — and the mid-run wave does when it takes node 0.
// Observed: no uninformed survivor on any source-surviving run at n = 10⁴ and
// 10⁵; at n = 10⁴ the wave takes the source on seed 1 at f = 0.10 and seeds
// 1–2 at f = 0.20.
func TestClusterFaultToleranceUninformedOverF(t *testing.T) {
	cells := []struct{ n, seeds int }{{10000, replications}}
	if largeCells() {
		cells = append(cells, struct{ n, seeds int }{100000, 3})
	}
	for _, cell := range cells {
		for _, round := range []int{0, 5} {
			prevMean, prevF := 0.0, 0
			for _, frac := range []float64{0.01, 0.05, 0.10, 0.20} {
				f := int(frac * float64(cell.n))
				var survived []uint64
				for _, seed := range check.Seeds(cell.seeds) {
					crashed := failure.Random{Count: f, Seed: seed + 1000}.Select(cell.n)
					if round > 1 && slices.Contains(crashed, 0) {
						if res := faultRun(t, cell.n, f, round, seed); res.Informed != 0 {
							t.Errorf("n=%d F=%d round %d seed %d: the wave crashed the source, yet %d nodes hold the rumor",
								cell.n, f, round, seed, res.Informed)
						}
						continue
					}
					survived = append(survived, seed)
				}
				r, err := check.Replicate(fmt.Sprintf("cluster2 uninformed/F at n=%d F=%d crash round %d", cell.n, f, round), survived,
					func(seed uint64) (float64, error) {
						res := faultRun(t, cell.n, f, round, seed)
						if res.Informed == 0 {
							t.Errorf("n=%d F=%d round %d seed %d: no node informed, yet the source survived", cell.n, f, round, seed)
						}
						return float64(res.UninformedSurvivors()) / float64(f), nil
					})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%v (%d of %d seeds keep the source)", r, len(survived), cell.seeds)
				r.AssertMaxBelow(t, 0.01)
				if prevF > 0 && r.Summary.Mean > prevMean {
					t.Errorf("n=%d crash round %d: mean uninformed/F grew from %.4f at F=%d to %.4f at F=%d",
						cell.n, round, prevMean, prevF, r.Summary.Mean, f)
				}
				prevMean, prevF = r.Summary.Mean, f
			}
		}
	}
}

// faultRun runs Cluster2 on n nodes with f failures chosen by the failure
// seed seed + 1000, struck at round (0: before the run), on one worker.
func faultRun(t *testing.T, n, f, round int, seed uint64) trace.Result {
	t.Helper()
	res, err := run.Execute(context.Background(), run.Spec{
		N: n, Algorithm: run.AlgoCluster2, Seed: seed, Workers: 1,
		Failures: f, FailureSeed: seed + 1000, FailureRound: round,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
