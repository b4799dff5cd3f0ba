// Package harness defines the reproduction experiments E1–E12 of DESIGN.md
// as tables over run.Execute: each experiment sweeps network sizes, seeds, Δ
// values, failure counts, churn timelines or topologies, describes every
// trial as a run.Spec, aggregates the round-, message- and bit-complexities
// that come back, and renders the tables recorded in EXPERIMENTS.md. It
// constructs no engine itself.
//
// The paper's theorems are asserted in this package's tests
// (theorems_test.go) on the same trial loop, measures and experiment grids,
// replicated over fixed seeds; see EXPERIMENTS.md, "Statistical
// methodology".
package harness

import (
	"context"
	"math"

	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SweepConfig describes a size/seed sweep and the two knobs every trial of
// it shares: the rumor size (PayloadBits, 0 for the default) and the engine
// shards per round (Workers, results identical for any value). The
// experiments fill in the algorithm, size, seed and dynamics per row.
type SweepConfig struct {
	Sizes       []int
	Seeds       []uint64
	PayloadBits int
	Workers     int
}

// spec returns the spec of one algorithm at one network size on the sweep.
func (cfg SweepConfig) spec(algo string, n int) run.Spec {
	return run.Spec{Algorithm: algo, N: n, PayloadBits: cfg.PayloadBits, Workers: cfg.Workers}
}

// trials runs the spec of every seed of the sweep, in seed order, and
// returns the results. It is the only loop in this package that runs a
// trial; spec may derive per-seed fields (failure, loss and adversary seeds)
// from the seed, and the seed itself is set here.
func (cfg SweepConfig) trials(spec func(seed uint64) run.Spec) ([]trace.Result, error) {
	out := make([]trace.Result, 0, len(cfg.Seeds))
	for _, seed := range cfg.Seeds {
		s := spec(seed)
		s.Seed = seed
		res, err := run.Execute(context.Background(), s)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// same is the spec of a row whose trials differ only in the seed.
func same(s run.Spec) func(uint64) run.Spec {
	return func(uint64) run.Spec { return s }
}

// over summarizes one measure across a row's trials.
func over(res []trace.Result, measure func(trace.Result) float64) stats.Summary {
	return stats.Summarize(values(res, measure))
}

// values is one measure of each of a row's trials, in seed order. Trials for
// which the measure is undefined (NaN) are left out of the sample.
func values(res []trace.Result, measure func(trace.Result) float64) []float64 {
	out := make([]float64, 0, len(res))
	for _, r := range res {
		if v := measure(r); !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// The measures the tables summarize, one per quantity.

func completion(r trace.Result) float64  { return float64(r.CompletionRound) }
func totalRounds(r trace.Result) float64 { return float64(r.Rounds) }
func msgsPerNode(r trace.Result) float64 { return r.MessagesPerNode }
func bitsPerNode(r trace.Result) float64 { return float64(r.Bits) / float64(r.N) }
func maxComms(r trace.Result) float64    { return float64(r.MaxCommsPerRound) }
func uninformed(r trace.Result) float64  { return float64(r.UninformedSurvivors()) }

// informed is the live-informed fraction, undefined when no node is live.
func informed(r trace.Result) float64 {
	if r.Live == 0 {
		return math.NaN()
	}
	return float64(r.Informed) / float64(r.Live)
}
