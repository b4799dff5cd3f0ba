// Package lowerbound implements the round-complexity lower bounds of the
// paper: the Ω(log log n) bound of Theorem 3 / Section 6 (via the
// knowledge-graph argument) and the log n / log Δ bound of Lemma 16 for
// bounded per-round communication.
package lowerbound

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TheoreticalMinRounds returns the paper's analytic lower bound of Theorem 3:
// 0.99·log₂ log₂ n rounds (any algorithm using fewer fails with high
// probability).
func TheoreticalMinRounds(n int) float64 {
	if n < 4 {
		return 0
	}
	return 0.99 * math.Log2(math.Log2(float64(n)))
}

// DeltaBound returns the analytic bound of Lemma 16: with no node
// participating in more than delta communications per round, at least
// log n / log delta rounds are required to inform all nodes.
func DeltaBound(n, delta int) float64 {
	if n < 2 || delta < 2 {
		return 0
	}
	return math.Log2(float64(n)) / math.Log2(float64(delta))
}

// Feasibility describes the outcome of the knowledge-graph simulation for one
// value of T.
type Feasibility struct {
	// T is the number of rounds allowed.
	T int
	// Eccentricity is the source's eccentricity in the union graph G₁ ∪ … ∪ G_T
	// (the largest hop distance to any node, or -1 if some node is unreachable).
	Eccentricity int
	// Reach is 2^T, the largest distance information can travel in T rounds
	// (Lemma 14: K_T ⊆ (∪ G_i)^(2^T)).
	Reach int
	// Possible reports whether spreading to all nodes in T rounds is possible
	// at all, i.e. whether Eccentricity ≤ Reach and every node is reachable.
	Possible bool
}

// MinRounds simulates the knowledge-graph argument of Section 6 for a network
// of n nodes: the random contacts of every round are drawn in advance, and
// broadcast within T rounds is possible only if every node is within distance
// 2^T of the source in the union of the first T contact graphs (Lemma 14).
// It returns the smallest feasible T together with the per-T feasibility
// trace. Every algorithm in this repository (and any algorithm in the model)
// needs at least the returned number of rounds on the corresponding random
// contacts.
func MinRounds(n int, seed uint64) (int, []Feasibility) {
	if n < 2 {
		return 0, nil
	}
	g := graph.New(n)
	source := 0
	var trace []Feasibility
	maxT := int(math.Ceil(math.Log2(math.Log2(float64(n)+4)))) + 8
	for t := 1; t <= maxT; t++ {
		// G_t: every node samples one uniformly random contact.
		for v := 0; v < n; v++ {
			u := int(rng.BoundedUint64(uint64(n), seed, 0x10b, uint64(t), uint64(v)))
			if u == v {
				u = (u + 1) % n
			}
			g.AddEdge(v, u)
		}
		ecc, all := g.Eccentricity(source)
		reach := 1 << uint(t)
		f := Feasibility{T: t, Eccentricity: ecc, Reach: reach, Possible: all && ecc <= reach}
		if !all {
			f.Eccentricity = -1
		}
		trace = append(trace, f)
		if f.Possible {
			return t, trace
		}
	}
	return maxT, trace
}
