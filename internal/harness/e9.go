package harness

import (
	"fmt"
	"reflect"

	"repro/internal/run"
	"repro/internal/trace"
)

// simAndLockStep runs a row's trials on the simulator and again with every
// node as a goroutine on the lock-step runtime, and returns the simulator's
// results. The two must be bit-equal (the internal/live conformance
// guarantee); identical, which the E9 and E12 "identical to sim" columns
// report, says whether they were for every seed. The engine label, the one
// field that differs by construction, is not compared.
func (cfg SweepConfig) simAndLockStep(spec run.Spec) (sim []trace.Result, identical bool, err error) {
	if sim, err = cfg.trials(same(spec)); err != nil {
		return nil, false, fmt.Errorf("sim: %w", err)
	}
	spec.Engine = run.EngineLockStep
	lockStep, err := cfg.trials(same(spec))
	if err != nil {
		return nil, false, fmt.Errorf("lock-step: %w", err)
	}
	identical = true
	for i, ls := range lockStep {
		ls.Engine = sim[i].Engine
		identical = identical && reflect.DeepEqual(sim[i], ls)
	}
	return sim, identical, nil
}

// E9SimVsLive is the sim-vs-live comparison table: the closed algorithms on
// the engine and on the lock-step runtime (asserted bit-identical), plus
// free-running convergence with and without transport loss. See
// EXPERIMENTS.md E9.
func E9SimVsLive(cfg SweepConfig) (Table, error) {
	// Goroutine-per-node execution: cap the size so the default sweep stays
	// cheap; the CLI runs larger live networks on demand.
	n := cfg.Sizes[len(cfg.Sizes)-1]
	if n > 2000 {
		n = 2000
	}
	t := Table{
		ID:    "E9",
		Title: fmt.Sprintf("simulated vs live execution at n=%d", n),
		Header: []string{
			"mode", "algorithm", "rounds", "msgs/node", "informed", "identical to sim",
		},
	}

	for _, algo := range []string{run.AlgoPushPull, run.AlgoCluster2} {
		res, identical, err := cfg.simAndLockStep(cfg.spec(algo, n))
		if err != nil {
			return Table{}, fmt.Errorf("E9 %s %w", algo, err)
		}
		t.Rows = append(t.Rows, []string{
			"live lock-step", algo,
			fmt.Sprintf("%.1f", over(res, totalRounds).Mean),
			fmt.Sprintf("%.2f", over(res, msgsPerNode).Mean),
			fmt.Sprintf("%.3f", over(res, informed).Mean),
			fmt.Sprintf("%v", identical),
		})
	}

	for _, drop := range []float64{0, 0.05} {
		res, err := cfg.trials(func(seed uint64) run.Spec {
			spec := cfg.spec(run.AlgoPushPull, n)
			spec.Engine = run.EngineFreeRunning
			spec.Drop, spec.DropSeed = drop, seed+900
			return spec
		})
		if err != nil {
			return Table{}, fmt.Errorf("E9 free drop=%.2f: %w", drop, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("live free-run %.0f%% drop", drop*100), run.AlgoPushPull,
			fmt.Sprintf("%.1f", over(res, completion).Mean),
			fmt.Sprintf("%.2f", over(res, msgsPerNode).Mean),
			fmt.Sprintf("%.3f", over(res, informed).Mean),
			"n/a (async)",
		})
	}

	t.Notes = append(t.Notes,
		"lock-step rows execute every node as a goroutine exchanging wire frames; 'identical to sim' asserts bit-equal traces (the internal/live conformance guarantee)",
		"free-run rows report the completion frontier (the first frontier round at which every live node held the rumor) under transport-level frame loss",
	)
	return t, nil
}
