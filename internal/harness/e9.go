package harness

import (
	"fmt"
	"reflect"

	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/trace"
)

// simAndLockStep runs one trial on the simulator and again with every node
// as a goroutine on the lock-step runtime. The two results must be bit-equal
// (the internal/live conformance guarantee); the E9 and E12 "identical to
// sim" columns report whether they were. The engine label, the one field
// that differs by construction, is cleared on both.
func simAndLockStep(spec run.Spec, seed uint64) (sim, lockStep trace.Result, err error) {
	if sim, err = execute(spec, seed); err != nil {
		return sim, lockStep, fmt.Errorf("sim: %w", err)
	}
	spec.Engine = run.EngineLockStep
	if lockStep, err = execute(spec, seed); err != nil {
		return sim, lockStep, fmt.Errorf("lock-step: %w", err)
	}
	sim.Engine, lockStep.Engine = "", ""
	return sim, lockStep, nil
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
		var rounds, msgs, informed []float64
		identical := true
		for _, seed := range cfg.Seeds {
			sim, liveRes, err := simAndLockStep(cfg.spec(algo, n), seed)
			if err != nil {
				return Table{}, fmt.Errorf("E9 %s %w", algo, err)
			}
			if !reflect.DeepEqual(sim, liveRes) {
				identical = false
			}
			rounds = append(rounds, float64(liveRes.Rounds))
			msgs = append(msgs, liveRes.MessagesPerNode)
			if liveRes.Live > 0 {
				informed = append(informed, float64(liveRes.Informed)/float64(liveRes.Live))
			}
		}
		t.Rows = append(t.Rows, []string{
			"live lock-step", algo,
			fmt.Sprintf("%.1f", stats.Summarize(rounds).Mean),
			fmt.Sprintf("%.2f", stats.Summarize(msgs).Mean),
			fmt.Sprintf("%.3f", stats.Summarize(informed).Mean),
			fmt.Sprintf("%v", identical),
		})
	}

	for _, drop := range []float64{0, 0.05} {
		var rounds, msgs, informed []float64
		for _, seed := range cfg.Seeds {
			spec := cfg.spec(run.AlgoPushPull, n)
			spec.Engine = run.EngineFreeRunning
			spec.Drop, spec.DropSeed = drop, seed+900
			res, err := execute(spec, seed)
			if err != nil {
				return Table{}, fmt.Errorf("E9 free drop=%.2f: %w", drop, err)
			}
			rounds = append(rounds, float64(res.CompletionRound))
			msgs = append(msgs, res.MessagesPerNode)
			if res.Live > 0 {
				informed = append(informed, float64(res.Informed)/float64(res.Live))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("live free-run %.0f%% drop", drop*100), run.AlgoPushPull,
			fmt.Sprintf("%.1f", stats.Summarize(rounds).Mean),
			fmt.Sprintf("%.2f", stats.Summarize(msgs).Mean),
			fmt.Sprintf("%.3f", stats.Summarize(informed).Mean),
			"n/a (async)",
		})
	}

	t.Notes = append(t.Notes,
		"lock-step rows execute every node as a goroutine exchanging wire frames; 'identical to sim' asserts bit-equal traces (the internal/live conformance guarantee)",
		"free-run rows report the completion frontier (the first frontier round at which every live node held the rumor) under transport-level frame loss",
	)
	return t, nil
}
