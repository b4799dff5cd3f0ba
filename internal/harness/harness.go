// Package harness defines the reproduction experiments E1–E12 of DESIGN.md
// as tables over run.Execute: each experiment sweeps network sizes, seeds, Δ
// values, failure counts, churn timelines or topologies, describes every
// trial as a run.Spec, aggregates the round-, message- and bit-complexities
// that come back, and renders the tables recorded in EXPERIMENTS.md. It
// constructs no engine itself.
package harness

import (
	"context"

	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SweepConfig describes a size/seed sweep. Spec is the template every trial
// starts from — the sweep-tunable knobs (PayloadBits, Workers, Delta); the
// experiments fill in the algorithm, size, seed and dynamics per row.
type SweepConfig struct {
	Sizes []int
	Seeds []uint64
	Spec  run.Spec
}

// DefaultSweep returns the sweep used by the checked-in experiment tables:
// three orders of magnitude of n and three seeds. Larger sweeps (up to 10⁶
// nodes) are available through cmd/benchtab flags.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Sizes: []int{1000, 10000, 100000},
		Seeds: []uint64{1, 2, 3},
	}
}

// spec returns the sweep's template set to one algorithm and network size.
func (cfg SweepConfig) spec(algo string, n int) run.Spec {
	s := cfg.Spec
	s.Algorithm, s.N = algo, n
	return s
}

// execute runs one trial: the spec at the given seed.
func execute(spec run.Spec, seed uint64) (trace.Result, error) {
	spec.Seed = seed
	return run.Execute(context.Background(), spec)
}

// Row aggregates repeated trials of one spec.
type Row struct {
	Algorithm string
	N         int
	Trials    int

	CompletionRounds stats.Summary
	TotalRounds      stats.Summary
	MessagesPerNode  stats.Summary
	BitsPerNode      stats.Summary
	MaxComms         stats.Summary
	InformedFraction stats.Summary
}

// Aggregate runs the spec for every seed and summarizes the results.
func Aggregate(spec run.Spec, seeds []uint64) (Row, error) {
	row := Row{Algorithm: spec.Algorithm, N: spec.N, Trials: len(seeds)}
	var rounds, totals, msgs, bits, comms, informed []float64
	for _, seed := range seeds {
		res, err := execute(spec, seed)
		if err != nil {
			return Row{}, err
		}
		rounds = append(rounds, float64(res.CompletionRound))
		totals = append(totals, float64(res.Rounds))
		msgs = append(msgs, res.MessagesPerNode)
		bits = append(bits, float64(res.Bits)/float64(res.N))
		comms = append(comms, float64(res.MaxCommsPerRound))
		if res.Live > 0 {
			informed = append(informed, float64(res.Informed)/float64(res.Live))
		}
	}
	row.CompletionRounds = stats.Summarize(rounds)
	row.TotalRounds = stats.Summarize(totals)
	row.MessagesPerNode = stats.Summarize(msgs)
	row.BitsPerNode = stats.Summarize(bits)
	row.MaxComms = stats.Summarize(comms)
	row.InformedFraction = stats.Summarize(informed)
	return row, nil
}
