package harness

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/failure"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// E10: gossip under Byzantine adversaries. Where E6 and E8 remove nodes
// (crash faults), E10 keeps them in the network misbehaving: liars advertise
// wrong holdings, spammers replace their traffic with junk, stale nodes
// answer with frozen state, and eclipse droppers cut a victim set off. The
// table sweeps adversary fraction × behavior × algorithm and reports how
// convergence degrades — the empirical counterpart of the observation that
// the paper's guarantees assume honest (if failing) participants.

// e10Victims is the eclipse rows' victim-set size: a handful of nodes, so
// the residual uninformed fraction directly exposes how many of them the
// droppers managed to isolate.
const e10Victims = 3

// e10Budget is the steppable rows' round budget: generous against the
// honest-run completion (Θ(log n) for push and push-pull) so a slowdown is
// measured, not clipped, while keeping the sweep bounded.
func e10Budget(n int) int {
	return 4*bits.Len(uint(n)) + 30
}

// e10Corrupt builds the round-1 corruption event of the trial at seed: count
// nodes chosen by the oblivious random selection, never the source (node 0
// stays honest so every row measures degraded spreading rather than a muted
// injection point), each running adv.
func e10Corrupt(n, count int, adv scenario.AdversarySpec, seed uint64) scenario.Event {
	nodes := failure.Random{Count: count + 1, Seed: seed + 4000}.Select(n)
	picked := make([]int, 0, count)
	for _, i := range nodes {
		if i != 0 && len(picked) < count {
			picked = append(picked, i)
		}
	}
	adv.Seed = seed + 5000
	return scenario.CorruptAt{At: 1, Nodes: picked, Adversary: adv}
}

// e10Steppable describes one steppable-protocol trial: rumor 0 injected at
// the honest node 0, count adversaries installed at round 1.
func e10Steppable(cfg SweepConfig, algo string, n, count int, adv scenario.AdversarySpec, seed uint64) run.Spec {
	spec := cfg.spec(algo, n)
	spec.ScenarioName = "e10"
	spec.Rounds = e10Budget(n)
	spec.Events = []scenario.Event{scenario.InjectRumor{At: 1, Node: 0, Rumor: 0}}
	if count > 0 {
		spec.Events = append(spec.Events, e10Corrupt(n, count, adv, seed))
	}
	return spec
}

// convergedRound is the completion round of a trial that informed every live
// node within the budget, undefined for one that did not.
func convergedRound(r trace.Result) float64 {
	if !r.AllInformed {
		return math.NaN()
	}
	return completion(r)
}

// residual is the live fraction still missing the rumor at the end.
func residual(r trace.Result) float64 { return 1 - informed(r) }

// E10Byzantine sweeps adversary fraction × behavior × algorithm and reports
// rounds-to-convergence and the residual uninformed fraction. Steppable rows
// (push, push-pull) run the multi-rumor scenario driver; the cluster2 rows
// run the closed direct-addressing algorithm with the same CorruptAt
// timeline, under the spammer (the one library behavior that
// attacks closed-protocol traffic — the holdings-directed liar and stale
// speak the rumor-set vocabulary and pass closed messages through).
func E10Byzantine(cfg SweepConfig) (Table, error) {
	n := cfg.Sizes[len(cfg.Sizes)-1]
	fractions := []float64{0, 0.05, 0.10, 0.25}
	steppables := []string{run.AlgoPush, run.AlgoPushPull}

	t := Table{
		ID:    "E10",
		Title: fmt.Sprintf("gossip under Byzantine behaviors at n=%d (adversaries installed at round 1)", n),
		Header: []string{
			"behavior", "algorithm", "fraction", "completion rounds", "completed",
			"residual uninformed", "msgs/node",
		},
	}

	addRow := func(behavior scenario.AdversaryKind, algo string, frac float64, res []trace.Result) {
		done := over(res, convergedRound)
		comp := "-"
		if done.Count > 0 {
			comp = fmt.Sprintf("%.1f", done.Mean)
		}
		t.Rows = append(t.Rows, []string{
			string(behavior),
			algo,
			fmt.Sprintf("%.2f", frac),
			comp,
			fmt.Sprintf("%d/%d", done.Count, len(res)),
			fmt.Sprintf("%.4f", over(res, residual).Mean),
			fmt.Sprintf("%.1f", over(res, msgsPerNode).Mean),
		})
	}

	victims := failure.Random{Count: e10Victims, Seed: 0xec1}.Select(n)
	behaviors := []scenario.AdversarySpec{
		{Kind: scenario.AdvLiar},
		{Kind: scenario.AdvSpammer},
		{Kind: scenario.AdvStale},
		{Kind: scenario.AdvEclipse, Victims: victims},
	}

	for _, adv := range behaviors {
		algos := steppables
		if adv.Kind == scenario.AdvEclipse {
			// Eclipse is targeted: one algorithm suffices to show the victim
			// set going dark as the dropper fraction grows.
			algos = []string{run.AlgoPushPull}
		}
		for _, algo := range algos {
			for _, frac := range fractions {
				count := int(frac * float64(n))
				res, err := cfg.trials(func(seed uint64) run.Spec {
					return e10Steppable(cfg, algo, n, count, adv, seed)
				})
				if err != nil {
					return Table{}, fmt.Errorf("E10 %s %s frac=%.2f: %w", adv.Kind, algo, frac, err)
				}
				addRow(adv.Kind, algo, frac, res)
			}
		}
	}

	// Closed direct-addressing rows: cluster2 under the spammer (CorruptAt
	// works without a rumor tracker).
	for _, frac := range fractions {
		count := int(frac * float64(n))
		res, err := cfg.trials(func(seed uint64) run.Spec {
			spec := cfg.spec(run.AlgoCluster2, n)
			if count > 0 {
				spammer := scenario.AdversarySpec{Kind: scenario.AdvSpammer}
				spec.Events = []scenario.Event{e10Corrupt(n, count, spammer, seed)}
			}
			return spec
		})
		if err != nil {
			return Table{}, fmt.Errorf("E10 spammer cluster2 frac=%.2f: %w", frac, err)
		}
		addRow(scenario.AdvSpammer, run.AlgoCluster2, frac, res)
	}

	t.Notes = append(t.Notes,
		"adversaries are installed at round 1 on random nodes (never the source); they keep running — the damage is misinformation, not absence",
		fmt.Sprintf("eclipse rows target a fixed victim set of %d nodes; residual uninformed ≈ victims/n once the droppers surround them", e10Victims),
		"completion rounds averages only the trials that converged within the budget ('-' when none did); residual uninformed is the mean live fraction still missing the rumor",
		"expected shape: residual grows monotonically with the adversary fraction for every behavior × algorithm, and push-pull degrades more slowly than push",
	)
	return t, nil
}
