package harness

// The paper's theorems as statistical tests, on the tables' own trial loop,
// measures and grids: each claim is measured across the fixed seeds 1..k and
// asserted against calibrated finite-size bounds (constants chosen with ~50%
// headroom over the observed worst case at the tested sizes, so genuine
// regressions trip the assertions while seed-to-seed noise does not). A
// failing seed is a table cell that can be replayed. See EXPERIMENTS.md,
// "Statistical methodology".

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/failure"
	"repro/internal/lowerbound"
	"repro/internal/phonecall"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/trace"
)

// replications is the standing replication count for theorem checks.
const replications = 8

// seeds is the sweep a theorem check replicates over: the fixed seeds 1..k,
// so every run and every failure is replayable, on one worker.
func seeds(k int) SweepConfig {
	cfg := SweepConfig{Workers: 1}
	for seed := 1; seed <= k; seed++ {
		cfg.Seeds = append(cfg.Seeds, uint64(seed))
	}
	return cfg
}

// trialsOf runs spec on cfg's seeds, failing the test on a run error.
func trialsOf(t *testing.T, cfg SweepConfig, spec func(uint64) run.Spec) []trace.Result {
	t.Helper()
	res, err := cfg.trials(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// allInformed requires every trial to inform every live node.
func allInformed(t *testing.T, res []trace.Result) {
	t.Helper()
	for _, r := range res {
		if !r.AllInformed {
			t.Errorf("%s n=%d seed=%d informed only %d/%d", r.Algorithm, r.N, r.Seed, r.Informed, r.Live)
		}
	}
}

// informedTrials runs a spec that differs only in the seed on cfg's seeds
// and requires every trial to inform every live node.
func informedTrials(t *testing.T, cfg SweepConfig, spec run.Spec) []trace.Result {
	t.Helper()
	res := trialsOf(t, cfg, same(spec))
	allInformed(t, res)
	return res
}

// logged summarizes one measure over trials and logs the summary.
func logged(t *testing.T, what string, res []trace.Result, measure func(trace.Result) float64) stats.Summary {
	t.Helper()
	s := over(res, measure)
	t.Logf("%s: k=%d mean=%.4g min=%.4g max=%.4g", what, s.Count, s.Mean, s.Min, s.Max)
	return s
}

// The assertion forms: a w.h.p. bound holds on every trial, so it is
// asserted against the sample maximum or minimum; an in-expectation bound
// is asserted against the 95 % confidence interval for the sample's mean.

func maxBelow(t testing.TB, what string, s stats.Summary, bound float64) {
	t.Helper()
	if s.Max > bound {
		t.Errorf("%s: max %.4g over %d trials exceeds the bound %.4g", what, s.Max, s.Count, bound)
	}
}

func minAbove(t testing.TB, what string, s stats.Summary, bound float64) {
	t.Helper()
	if s.Min < bound {
		t.Errorf("%s: min %.4g over %d trials falls below the bound %.4g", what, s.Min, s.Count, bound)
	}
}

func ciBelow(t testing.TB, what string, sample []float64, bound float64) {
	t.Helper()
	if ci := stats.ConfidenceInterval(sample, 0.95); ci.Hi > bound {
		t.Errorf("%s: CI [%.4g, %.4g] upper end exceeds the bound %.4g", what, ci.Lo, ci.Hi, bound)
	}
}

func ciAbove(t testing.TB, what string, sample []float64, bound float64) {
	t.Helper()
	if ci := stats.ConfidenceInterval(sample, 0.95); ci.Lo < bound {
		t.Errorf("%s: CI [%.4g, %.4g] lower end falls below the bound %.4g", what, ci.Lo, ci.Hi, bound)
	}
}

// TestCluster2RoundsLogarithmicWHP: Theorem 2 gives O(log log n) rounds
// w.h.p.; the check asserts the (weaker, implied) O(log n) form named in the
// verification plan — every replication completes within C·log2 n rounds —
// plus the sharper scaling signal that rounds-per-log2 n does not grow
// with n (it shrinks under the true log log behavior).
func TestCluster2RoundsLogarithmicWHP(t *testing.T) {
	const c = 8 // observed max ratio ≈ 3.6 at n=1000
	cfg := seeds(replications)
	perLog := make(map[int]float64)
	for _, n := range []int{1000, 10000} {
		what := fmt.Sprintf("cluster2 completion rounds at n=%d", n)
		rounds := logged(t, what, informedTrials(t, cfg, cfg.spec(run.AlgoCluster2, n)), completion)
		logN := math.Log2(float64(n))
		maxBelow(t, what, rounds, c*logN)
		perLog[n] = rounds.Mean / logN
	}
	if perLog[10000] > perLog[1000]*1.15 {
		t.Errorf("rounds per log2 n grew with n (%.2f -> %.2f): not O(log n)",
			perLog[1000], perLog[10000])
	}
}

// largeCells reports whether the expensive cells (n = 10⁶, the n = 10⁴
// success sweep and E5 cells, E6 at n = 10⁵) run: not under -short or the
// race detector. CI runs them in a dedicated non-race step.
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
	perLogLog              stats.Summary // CompletionRound ÷ log₂log₂ n
	rounds, msgs, bitsPerB float64       // means: rounds, msgs/node, bits/(n·b)
}

// sweep measures algo over sweepSizes, asserting every replication informs
// every node.
func sweep(t *testing.T, algo string) []sweepCell {
	t.Helper()
	var cells []sweepCell
	for _, size := range sweepSizes() {
		cfg := seeds(size.seeds)
		res := informedTrials(t, cfg, cfg.spec(algo, size.n))
		logLog := math.Log2(math.Log2(float64(size.n)))
		c := sweepCell{
			n:         size.n,
			perLogLog: over(res, func(r trace.Result) float64 { return completion(r) / logLog }),
			rounds:    over(res, completion).Mean,
			msgs:      over(res, msgsPerNode).Mean,
			bitsPerB:  over(res, bitsPerNode).Mean / phonecall.DefaultPayloadBits,
		}
		t.Logf("%s n=%d k=%d: rounds/log2log2 n mean %.2f max %.2f; rounds %.1f, msgs/node %.2f, bits/(n·b) %.2f",
			algo, c.n, size.seeds, c.perLogLog.Mean, c.perLogLog.Max, c.rounds, c.msgs, c.bitsPerB)
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
			maxBelow(t, fmt.Sprintf("rounds/log2log2 n at n=%d", c.n), c.perLogLog, 22)
			if c.msgs > 20 || c.bitsPerB > 5 {
				t.Errorf("n=%d: msgs/node %.2f (bound 20), bits/(n·b) %.2f (bound 5)", c.n, c.msgs, c.bitsPerB)
			}
		}
		assertDecadeGrowth(t, "rounds/log2log2 n", cells, func(c sweepCell) float64 { return c.perLogLog.Mean }, 1.10)
		assertDecadeGrowth(t, "msgs/node", cells, func(c sweepCell) float64 { return c.msgs }, 1.10)
		assertDecadeGrowth(t, "bits/(n·b)", cells, func(c sweepCell) float64 { return c.bitsPerB }, 1.25)
	})
	t.Run("cluster1", func(t *testing.T) {
		// observed max: rounds/log₂log₂ n 8 (n = 10⁶)
		cells := sweep(t, run.AlgoCluster1)
		for _, c := range cells {
			maxBelow(t, fmt.Sprintf("rounds/log2log2 n at n=%d", c.n), c.perLogLog, 12)
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
// of the nodes failed by E6's oblivious adversary before the run.
func TestCluster2InformsEveryLiveNodeOverSeeds(t *testing.T) {
	const need = 198
	cfg := seeds(200)
	sizes := []int{1000}
	if largeCells() {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		for _, failures := range []int{0, n / 10} {
			ok := 0
			for _, r := range trialsOf(t, cfg, cfg.e6Spec(n, failures, 0)) {
				if r.AllInformed {
					ok++
				}
			}
			t.Logf("cluster2 n=%d failures=%d: every live node informed on %d/%d seeds", n, failures, ok, len(cfg.Seeds))
			if ok < need {
				t.Errorf("cluster2 n=%d failures=%d: every live node informed on only %d/%d seeds, want >= %d",
					n, failures, ok, len(cfg.Seeds), need)
			}
		}
	}
}

// TestClusterPushPullMessageComplexity: Theorem 18 bounds ClusterPUSH-PULL's
// traffic by O(n·(log log n + log n / log Δ)) messages; with the default
// Δ = 1024 the in-expectation check asserts the confidence interval of the
// messages per node stays below the calibrated curve (observed ratio ≈ 13
// at the tested sizes).
func TestClusterPushPullMessageComplexity(t *testing.T) {
	const c = 30
	cfg := seeds(replications)
	for _, n := range []int{1000, 10000} {
		what := fmt.Sprintf("clusterpushpull msgs/node at n=%d", n)
		res := informedTrials(t, cfg, cfg.spec(run.AlgoClusterPushPull, n))
		logN := math.Log2(float64(n))
		curve := math.Log2(logN) + logN/math.Log2(1024)
		ciBelow(t, what, values(res, msgsPerNode), c*curve)
		maxBelow(t, what, logged(t, what, res, msgsPerNode), 1.5*c*curve)
	}
}

// TestCluster2ConstantMessagesPerNode: the second half of Theorem 2 — O(1)
// messages per node on average. Across a decade of n the per-node message
// count must not grow (observed ≈ 13.0 at n=1000, 11.9 at n=10000).
func TestCluster2ConstantMessagesPerNode(t *testing.T) {
	cfg := seeds(replications)
	perNode := make(map[int]float64)
	for _, n := range []int{1000, 10000} {
		perNode[n] = over(informedTrials(t, cfg, cfg.spec(run.AlgoCluster2, n)), msgsPerNode).Mean
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
	cfg := seeds(replications)
	for _, n := range []int{1000, 10000} {
		what := fmt.Sprintf("push completion rounds at n=%d", n)
		res := informedTrials(t, cfg, cfg.spec(run.AlgoPush, n))
		minAbove(t, what, logged(t, what, res, completion), math.Log2(float64(n)))
		// And in expectation PUSH pays the known ~log2 n + ln n rounds;
		// assert the mean keeps growing logarithmically (CI above 1.5·log2 n,
		// observed mean ratio ≈ 2.0).
		ciAbove(t, what, values(res, completion), 1.5*math.Log2(float64(n)))
	}
}

// TestRoundLowerBound: Theorem 3 — no algorithm in the model informs every
// node in fewer than 0.99·log₂log₂ n rounds — checked against every
// algorithm of the E1 comparison rather than only E4's cluster2 column, with
// E4's own comparison: every seed completes no sooner than the analytic
// bound and the knowledge-graph feasibility bound of that seed's contact
// draw (Lemma 14).
func TestRoundLowerBound(t *testing.T) {
	cfg := seeds(replications)
	for _, n := range []int{1000, 10000} {
		minT := knowledgeBounds(n, cfg.Seeds)
		for _, algo := range comparisonAlgos() {
			res := informedTrials(t, cfg, cfg.spec(algo, n))
			logged(t, fmt.Sprintf("%s completion rounds at n=%d", algo, n), res, completion)
			for i, r := range res {
				if !respectsLowerBound(r, minT[i]) {
					t.Errorf("%s n=%d seed=%d completed in %d rounds, below max(%.2f, knowledge-graph bound %.0f)",
						algo, n, r.Seed, r.CompletionRound, lowerbound.TheoreticalMinRounds(n), minT[i])
				}
			}
		}
	}
}

// TestBitsLinearInPayload: E3 — Theorem 2's O(n·b) total bits. For
// Cluster2, bits/(n·b) must not increase as the payload b grows over E3's
// {256, 1024, 4096} at n ∈ {10³, 10⁴}, and at b = 4096 every replication
// stays under a constant (observed max 1.12). PUSH-PULL pays Θ(n·b·log n):
// at b = 4096 its smallest ratio must be at least 20× Cluster2's largest
// (observed ≥ 33×).
func TestBitsLinearInPayload(t *testing.T) {
	cfg := seeds(replications)
	bitsPerB := func(algo string, n, b int) stats.Summary {
		spec := cfg.spec(algo, n)
		spec.PayloadBits = b
		return logged(t, fmt.Sprintf("%s bits/(n·b) at n=%d b=%d", algo, n, b), informedTrials(t, cfg, spec),
			func(r trace.Result) float64 { return bitsPerNode(r) / float64(b) })
	}
	payloads := e3Payloads()
	top := payloads[len(payloads)-1]
	for _, n := range []int{1000, 10000} {
		var c2 stats.Summary
		for k, b := range payloads {
			s := bitsPerB(run.AlgoCluster2, n, b)
			if k > 0 && s.Mean > c2.Mean {
				t.Errorf("cluster2 n=%d: bits/(n·b) rose from %.2f to %.2f as b grew to %d", n, c2.Mean, s.Mean, b)
			}
			c2 = s
		}
		maxBelow(t, fmt.Sprintf("cluster2 bits/(n·b) at n=%d b=%d", n, top), c2, 1.7)
		if pp := bitsPerB(run.AlgoPushPull, n, top); pp.Min < 20*c2.Max {
			t.Errorf("n=%d b=%d: push-pull bits/(n·b) %.2f is under 20x cluster2's %.2f", n, top, pp.Min, c2.Max)
		}
	}
}

// TestReplicationMethodology: every assertion form fires on a planted
// violation, so a silently vacuous assertion cannot survive. (That the
// interval narrows with more replications is stats.TestConfidenceInterval.)
func TestReplicationMethodology(t *testing.T) {
	sample := []float64{10, 11, 12, 13, 14}
	s := stats.Summarize(sample)
	for name, assert := range map[string]func(testing.TB){
		"maxBelow": func(p testing.TB) { maxBelow(p, "planted", s, s.Max-1) },
		"minAbove": func(p testing.TB) { minAbove(p, "planted", s, s.Min+1) },
		"ciBelow":  func(p testing.TB) { ciBelow(p, "planted", sample, s.Mean-1) },
		"ciAbove":  func(p testing.TB) { ciAbove(p, "planted", sample, s.Mean+1) },
	} {
		probe := &testing.T{}
		if assert(probe); !probe.Failed() {
			t.Errorf("%s did not fire on a planted violation", name)
		}
	}
}

// TestClusterPushPullDeltaTradeoff: E5 as an assertion — Theorem 4 and
// Lemma 16. ClusterPUSH-PULL over E5's Δ ∈ {64, 256, 1024, 4096} informs
// every live node on every seed; the broadcast phase that runs
// on top of the Δ-clustering takes at least Lemma 16's log n / log Δ rounds
// and at most a calibrated constant times ⌈log n / log Δ⌉; and no node takes
// part in more than O(Δ) communications in a round — Theorem 4's form, since
// the observed maximum exceeds Δ itself. Observed worst case: 10 broadcast
// rounds per ⌈log n / log Δ⌉ (n = 10³, Δ ≥ 1024), maxΔ/Δ 1.43 at n = 10³ and
// 1.92 at n = 10⁴ (Δ = 4096); the constants follow the ~50 % headroom rule
// over those.
func TestClusterPushPullDeltaTradeoff(t *testing.T) {
	const roundsC, commsC = 15, 3
	cfg := seeds(replications)
	sizes := []int{1000}
	if largeCells() {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		for _, delta := range e5Deltas() {
			what := fmt.Sprintf("clusterpushpull broadcast rounds at n=%d Δ=%d", n, delta)
			spec := cfg.spec(run.AlgoClusterPushPull, n)
			spec.Delta = delta
			res := informedTrials(t, cfg, spec)
			rounds := logged(t, what, res, broadcastRounds)
			minAbove(t, what, rounds, lowerbound.DeltaBound(n, delta))
			maxBelow(t, what, rounds, roundsC*math.Ceil(math.Log2(float64(n))/math.Log2(float64(delta))))
			comms := over(res, maxComms).Max
			t.Logf("n=%d Δ=%d: maxΔ/Δ %.2f", n, delta, comms/float64(delta))
			if comms > commsC*float64(delta) {
				t.Errorf("n=%d Δ=%d: a node took part in %.0f communications in one round, above %d·Δ",
					n, delta, comms, commsC)
			}
		}
	}
}

// TestClusterFaultToleranceUninformedOverF: E6 as an assertion — Theorem 19.
// E6's oblivious adversary fails F = f·n nodes, f ∈ {0.01, 0.05, 0.10,
// 0.20}, either before round 0 (Section 8) or in a crash wave at round 5. On
// every seed whose source survives, at most 1 % of F live nodes stay
// uninformed, and the mean uninformed/F does not grow with F. Cluster2 holds
// the rumor at the source alone until ClusterShare, so a wave that crashes
// the source loses the rumor outright: a run ends with no node informed
// exactly when the crash set contains the source. The start-time adversary
// never does — the run picks a surviving source — and the mid-run wave does
// when it takes node 0. Observed: no uninformed survivor on any
// source-surviving run at n = 10⁴ and 10⁵; at n = 10⁴ the wave takes the
// source on seed 1 at f = 0.10 and seeds 1–2 at f = 0.20.
func TestClusterFaultToleranceUninformedOverF(t *testing.T) {
	cells := []struct{ n, seeds int }{{10000, replications}}
	if largeCells() {
		cells = append(cells, struct{ n, seeds int }{100000, 3})
	}
	for _, cell := range cells {
		cfg := seeds(cell.seeds)
		for _, round := range []int{0, 5} {
			prevMean, prevF := 0.0, 0
			for _, fault := range e6Faults(cell.n) {
				spec := cfg.e6Spec(cell.n, fault.f, round)
				var survived []trace.Result
				for _, r := range trialsOf(t, cfg, spec) {
					s := spec(r.Seed)
					crashed := failure.Random{Count: s.Failures, Seed: s.FailureSeed}.Select(cell.n)
					if round > 1 && slices.Contains(crashed, 0) {
						if r.Informed != 0 {
							t.Errorf("n=%d F=%d round %d seed %d: the wave crashed the source, yet %d nodes hold the rumor",
								cell.n, fault.f, round, r.Seed, r.Informed)
						}
						continue
					}
					if r.Informed == 0 {
						t.Errorf("n=%d F=%d round %d seed %d: no node informed, yet the source survived",
							cell.n, fault.f, round, r.Seed)
					}
					survived = append(survived, r)
				}
				what := fmt.Sprintf("cluster2 uninformed/F at n=%d F=%d crash round %d (%d of %d seeds keep the source)",
					cell.n, fault.f, round, len(survived), cell.seeds)
				s := logged(t, what, survived, func(r trace.Result) float64 { return uninformed(r) / float64(fault.f) })
				maxBelow(t, what, s, 0.01)
				if prevF > 0 && s.Mean > prevMean {
					t.Errorf("n=%d crash round %d: mean uninformed/F grew from %.4f at F=%d to %.4f at F=%d",
						cell.n, round, prevMean, prevF, s.Mean, fault.f)
				}
				prevMean, prevF = s.Mean, fault.f
			}
		}
	}
}

// TestFreeRunningFrontierWithinSyncRounds: E9 as an assertion. E9's
// free-running push-pull trials at n = 1000, at each of its frame-loss
// rates, inform every live node, and each seed's completion frontier lands
// within the round budget of the simulator's push-pull run on the same seed.
// Observed over 20 runs: frontier 7–15 (9–15 under -race, 10 runs) against
// 25 simulator rounds; the simulator itself completes in 9–10.
func TestFreeRunningFrontierWithinSyncRounds(t *testing.T) {
	const n = 1000
	cfg := seeds(replications)
	sim := informedTrials(t, cfg, cfg.spec(run.AlgoPushPull, n))
	for _, drop := range e9Drops() {
		free := trialsOf(t, cfg, cfg.e9FreeSpec(n, drop))
		allInformed(t, free)
		logged(t, fmt.Sprintf("free-running push-pull frontier at drop %.2f", drop), free, completion)
		for i, r := range free {
			if r.CompletionRound > sim[i].Rounds {
				t.Errorf("drop %.2f seed %d: frontier %d beyond the simulator's %d rounds",
					drop, r.Seed, r.CompletionRound, sim[i].Rounds)
			}
		}
	}
}
