package harness

import (
	"fmt"

	"repro/internal/run"
)

// e8CrashRound is the engine round at whose start E8's crash wave strikes:
// late enough that every algorithm is mid-execution (the clustering
// algorithms are still building their clustering, the baselines are still
// spreading), so the wave hits live in-flight state rather than the start
// configuration.
const e8CrashRound = 4

// E8Churn reproduces the "gossip under churn" comparison: a timed oblivious
// crash wave (Spec.Failures at Spec.FailureRound) plus per-call loss,
// swept over crash fraction × loss rate × algorithm, all mid-execution.
// Unlike E6 — where the adversary strikes before round 0 and Theorem 19
// bounds the damage — the wave here removes informed nodes and in-flight
// calls, which is exactly the regime where the paper's sparse O(1)-message
// algorithms and the address-book baseline diverge from robust flooding.
func E8Churn(cfg SweepConfig) (Table, error) {
	n := cfg.Sizes[len(cfg.Sizes)-1]
	crashFracs := []float64{0, 0.10, 0.25}
	lossRates := []float64{0, 0.05, 0.20}
	algos := []string{run.AlgoPushPull, run.AlgoAddressBook, run.AlgoCluster2}

	t := Table{
		ID: "E8",
		Title: fmt.Sprintf("gossip under churn at n=%d (crash wave at round %d × per-call loss)",
			n, e8CrashRound),
		Header: []string{
			"crash F/n", "loss", "algorithm", "informed min", "uninformed mean",
			"rounds", "msgs/node",
		},
	}
	for _, frac := range crashFracs {
		f := int(frac * float64(n))
		for _, loss := range lossRates {
			for _, algo := range algos {
				res, err := cfg.trials(func(seed uint64) run.Spec {
					spec := cfg.spec(algo, n)
					spec.LossRate, spec.LossSeed = loss, seed+3000
					spec.Failures, spec.FailureRound = f, e8CrashRound
					spec.FailureSeed = seed + 2000
					return spec
				})
				if err != nil {
					return Table{}, fmt.Errorf("E8 %s crash=%.2f loss=%.2f: %w", algo, frac, loss, err)
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%.2f", frac),
					fmt.Sprintf("%.2f", loss),
					algo,
					fmt.Sprintf("%.3f", over(res, informed).Min),
					fmt.Sprintf("%.1f", over(res, uninformed).Mean),
					fmt.Sprintf("%.1f", over(res, totalRounds).Mean),
					fmt.Sprintf("%.1f", over(res, msgsPerNode).Mean),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("the crash wave fires at the start of round %d — mid-execution, after spreading has begun — and loss applies from round 1", e8CrashRound),
		"informed min is the worst live-informed fraction over seeds; uninformed mean counts live survivors without the rumor",
		"expected shape: push-pull degrades gracefully under loss; the sparse algorithms lose more coverage per crashed node, and loss stretches every round count",
	)
	return t, nil
}
