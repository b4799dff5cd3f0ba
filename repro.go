// Package repro is the public facade of the reproduction of "Optimal Gossip
// with Direct Addressing" (Haeupler & Malkhi, PODC 2014).
//
// It exposes the paper's gossip algorithms (Cluster1, Cluster2,
// ClusterPUSH-PULL with a Δ-clustering) and the prior-work baselines they are
// compared against, running on three interchangeable engines: an exact
// sharded simulation of the random phone call model with direct addressing,
// a goroutine-per-node lock-step runtime that is bit-identical to the
// simulator, and a free-running live runtime with local round clocks.
//
// The single entry point is Run, a context-aware, composable execution API
// built from functional options:
//
//	report, err := repro.Run(ctx, 100_000,
//	    repro.WithAlgorithm(repro.AlgoCluster2),
//	    repro.WithSeed(7),
//	    repro.WithObserver(func(r repro.RoundInfo) { fmt.Println(r.Round, r.Messages) }),
//	)
//
// Everything composes: failures and loss (WithFailures, WithLoss), dynamic
// timelines and multi-rumor workloads (WithTimeline, WithRumors,
// WithScenarioSpec), engine selection (OnSimulator, OnLockStep,
// OnFreeRunning), and streaming per-round statistics (WithObserver).
// Invalid combinations are rejected at the boundary with errors satisfying
// errors.Is(err, ErrInvalidConfig). Run is the package's only runner: apart
// from the lower bounds of Theorem 3 and Lemma 16, the rest of the API builds
// its options (timeline events, topologies, policies) or reads its Report.
package repro

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/run"
)

// Algorithm selects one of the implemented gossip algorithms.
type Algorithm string

// The available algorithms. The paper's contributions are AlgoCluster1
// (Algorithm 1), AlgoCluster2 (Algorithm 2, the main result) and
// AlgoClusterPushPull (Algorithms 3+4, bounded per-round communication); the
// rest are the prior-work baselines. AlgoPush, AlgoPull and AlgoPushPull
// double as the steppable multi-rumor protocols of timeline workloads and
// the free-running engine.
const (
	AlgoPush            Algorithm = "push"
	AlgoPull            Algorithm = "pull"
	AlgoPushPull        Algorithm = "push-pull"
	AlgoKarp            Algorithm = "karp-median-counter"
	AlgoAddressBook     Algorithm = "addressbook"
	AlgoNameDropper     Algorithm = "name-dropper"
	AlgoCluster1        Algorithm = "cluster1"
	AlgoCluster2        Algorithm = "cluster2"
	AlgoClusterPushPull Algorithm = "clusterpushpull"
)

// Algorithms lists every available algorithm in comparison order.
func Algorithms() []Algorithm {
	names := run.Algorithms()
	out := make([]Algorithm, len(names))
	for i, a := range names {
		out[i] = Algorithm(a)
	}
	return out
}

// AlgorithmNames lists every available algorithm name in comparison order —
// the strings ParseAlgorithm accepts.
func AlgorithmNames() []string { return run.Algorithms() }

// ParseAlgorithm resolves an algorithm name (as the CLIs accept it) to an
// Algorithm, rejecting unknown names with an ErrInvalidConfig error.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == name {
			return a, nil
		}
	}
	return "", fmt.Errorf("%w: unknown algorithm %q (have %s)",
		ErrInvalidConfig, name, strings.Join(AlgorithmNames(), ", "))
}

// ErrInvalidConfig is wrapped by every configuration-validation error this
// package returns; test for it with errors.Is. The message names the first
// violated constraint.
var ErrInvalidConfig = run.ErrInvalidConfig

// Phase is the cost of one named phase of an execution.
type Phase struct {
	Name     string
	Rounds   int
	Messages int64
	Bits     int64
}

// Result reports the outcome and complexity of a broadcast execution.
type Result struct {
	Algorithm string
	N         int
	Seed      uint64

	// Rounds is the total number of synchronous rounds executed;
	// CompletionRound is the first round by which every live node knew the
	// rumor (baselines with a fixed round budget keep running afterwards).
	Rounds          int
	CompletionRound int

	// Messages counts rumor/payload messages, ControlMessages counts empty
	// requests; MessagesPerNode averages both over the nodes. Bits is the
	// total bit complexity. MaxCommsPerRound is the paper's Δ: the largest
	// number of communications any node took part in during one round. On
	// the free-running engine a round has no common boundary: a node's round
	// counts every call frame its drain returned, a faster sender's calls of
	// up to 2·MaxSkew rounds included, so there it reads up to 2·MaxSkew+1
	// and is not comparable with the synchronous engines' Δ.
	Messages         int64
	ControlMessages  int64
	Bits             int64
	MessagesPerNode  float64
	MaxCommsPerRound int

	// Live is the number of non-failed nodes, Informed how many of them ended
	// up with the rumor.
	Live        int
	Informed    int
	AllInformed bool

	Phases []Phase
}

// UninformedSurvivors returns the number of live nodes that did not learn the
// rumor (the paper's fault-tolerance measure is that this is o(F)).
func (r Result) UninformedSurvivors() int { return r.Live - r.Informed }

// Feasibility is one row of the knowledge-graph feasibility trace behind
// LowerBoundTrace's bound: whether broadcast within T rounds is possible at
// all on the drawn contacts (Lemma 14: every node must be within distance
// 2^T = Reach of the source in the union of the first T contact graphs).
type Feasibility struct {
	T            int
	Eccentricity int
	Reach        int
	Possible     bool
}

// LowerBoundTrace returns the Theorem 3 knowledge-graph bound together with
// its per-T feasibility trace for one random draw of contacts.
func LowerBoundTrace(n int, seed uint64) (int, []Feasibility) {
	minT, tr := lowerbound.MinRounds(n, seed)
	out := make([]Feasibility, 0, len(tr))
	for _, f := range tr {
		out = append(out, Feasibility(f))
	}
	return minT, out
}

// TheoreticalLowerBound returns the analytic 0.99·log₂ log₂ n round lower
// bound of Theorem 3.
func TheoreticalLowerBound(n int) float64 { return lowerbound.TheoreticalMinRounds(n) }

// DeltaLowerBound returns the log n / log Δ round lower bound of Lemma 16 for
// executions in which no node communicates with more than delta nodes per
// round.
func DeltaLowerBound(n, delta int) float64 { return lowerbound.DeltaBound(n, delta) }

// MinDelta is the smallest supported per-round communication bound for
// AlgoClusterPushPull.
const MinDelta = core.MinDelta
