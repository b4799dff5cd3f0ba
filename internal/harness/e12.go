package harness

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/run"
	"repro/internal/scenario"
)

// E12 — non-uniform gossip over heterogeneous topologies: the push/pull
// baselines and the paper's cluster algorithm under policy-driven peer
// selection, across a uniform network, flat zones and a WAN-asymmetric
// topology, plus zone-outage convergence on all three engines. Every
// policy-driven row asserts the simulator and the lock-step runtime stay
// bit-identical — the conformance guarantee extends to the policy selector.
// See EXPERIMENTS.md E12.

// e12Policy is the selection policy of the non-uniform rows: prefer same-zone
// peers 3:1 and lean toward high-capacity nodes, no hard constraints, so
// progress never stalls while the bias stays visible in the round counts.
func e12Policy() *policy.Policy {
	return &policy.Policy{
		Weights: policy.Weights{SameZone: 3, Capacity: 1},
	}
}

// E12Topologies builds the E12 table.
func E12Topologies(cfg SweepConfig) (Table, error) {
	// Policy-driven lock-step rows run every node as a goroutine: cap the
	// size like E9 so the default sweep stays cheap.
	n := cfg.Sizes[len(cfg.Sizes)-1]
	if n > 2000 {
		n = 2000
	}
	const zones = 3
	t := Table{
		ID:    "E12",
		Title: fmt.Sprintf("policy-driven gossip over heterogeneous topologies at n=%d", n),
		Header: []string{
			"topology", "algorithm", "rounds", "msgs/node", "informed", "identical to sim",
		},
	}

	zoned, err := policy.ZoneTable(n, zones)
	if err != nil {
		return Table{}, fmt.Errorf("E12: %w", err)
	}
	wan, err := policy.WanLanTable(n, zones)
	if err != nil {
		return Table{}, fmt.Errorf("E12: %w", err)
	}
	topos := []struct {
		name  string
		table *policy.Table
		pol   *policy.Policy
	}{
		{"uniform", nil, nil},
		{"zoned", zoned, e12Policy()},
		{"wan-asym", wan, e12Policy()},
	}

	for _, topo := range topos {
		for _, algo := range []string{run.AlgoPush, run.AlgoPull, run.AlgoPushPull, run.AlgoCluster2} {
			spec := cfg.spec(algo, n)
			spec.Topology, spec.Policy = topo.table, topo.pol
			res, identical, err := cfg.simAndLockStep(spec)
			if err != nil {
				return Table{}, fmt.Errorf("E12 %s/%s %w", topo.name, algo, err)
			}
			t.Rows = append(t.Rows, []string{
				topo.name, algo,
				fmt.Sprintf("%.1f", over(res, completion).Mean),
				fmt.Sprintf("%.2f", over(res, msgsPerNode).Mean),
				fmt.Sprintf("%.3f", over(res, informed).Mean),
				fmt.Sprintf("%v", identical),
			})
		}
	}

	// Zone-outage convergence: zone 2 goes dark at round 3 and heals at round
	// 8 while a zoned policy biases the spread — all three engines must still
	// inform every live node.
	outage := cfg.spec(run.AlgoCluster2, n)
	outage.Topology, outage.Policy = zoned, e12Policy()
	outage.Events = []scenario.Event{
		scenario.ZoneOutage{At: 3, Zone: zones - 1},
		scenario.ZoneHeal{At: 8, Zone: zones - 1},
	}
	res, identical, err := cfg.simAndLockStep(outage)
	if err != nil {
		return Table{}, fmt.Errorf("E12 outage %w", err)
	}
	t.Rows = append(t.Rows, []string{
		"zoned + outage", "cluster2 (sim & lock-step)",
		fmt.Sprintf("%.1f", over(res, totalRounds).Mean),
		"-",
		fmt.Sprintf("%.3f", over(res, informed).Mean),
		fmt.Sprintf("%v", identical),
	})

	outage.Algorithm, outage.Engine = run.AlgoPushPull, run.EngineFreeRunning
	if res, err = cfg.trials(same(outage)); err != nil {
		return Table{}, fmt.Errorf("E12 outage free-run: %w", err)
	}
	t.Rows = append(t.Rows, []string{
		"zoned + outage", "push-pull (free-running)",
		fmt.Sprintf("%.1f", over(res, completion).Mean),
		"-",
		fmt.Sprintf("%.3f", over(res, informed).Mean),
		"n/a (async)",
	})

	t.Notes = append(t.Notes,
		fmt.Sprintf("non-uniform rows select peers under a same-zone 3:1 capacity-weighted policy over %d zones; 'identical to sim' asserts bit-equal sim and lock-step traces", zones),
		"the uniform rows run the unchanged contract (no topology installed) — the baseline the policy rows are read against",
		fmt.Sprintf("outage rows crash zone %d at round 3 and heal it at round 8; informed counts live nodes holding the rumor at the end", zones-1),
	)
	return t, nil
}
