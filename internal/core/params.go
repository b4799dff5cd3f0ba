// Package core implements the gossip algorithms of Haeupler & Malkhi,
// "Optimal Gossip with Direct Addressing" (PODC 2014): Cluster1 (Algorithm 1,
// Theorem 9), Cluster2 (Algorithm 2, Theorem 2), Cluster3(Δ) (Algorithm 4,
// Theorem 18) and ClusterPUSH-PULL(Δ) (Algorithm 3, Lemma 17), together with
// the broadcast drivers that run them end to end on the random phone call
// substrate.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/phonecall"
)

// The constants of the algorithms. The paper states them asymptotically (C,
// C', C”); the values here are chosen so that the algorithms succeed with
// high probability at laptop-scale n (10^3–10^6) while preserving the
// asymptotic behaviour.
const (
	// seedC is the paper's C: Cluster1 seeds singleton clusters with
	// probability 1/(seedC·ln n), so that after the initial PUSH growth the
	// average cluster size is about seedC·ln n.
	seedC = 8

	// dissolveSizeC is the paper's C' for Cluster1 (with C' ≪ C): clusters
	// smaller than dissolveSizeC·ln n are dissolved before the squaring
	// phase, which also starts at that size.
	dissolveSizeC = 1

	// initSizeC scales the initial cluster size target C'·ln n used by the
	// sparse GrowInitialClusters of Cluster2/Cluster3 and as the starting
	// size of their SquareClusters phase.
	initSizeC = 3

	// growTargetFraction is the fraction of nodes Cluster1 aims to cluster
	// in GrowInitialClusters (the paper's 90%).
	growTargetFraction = 0.9

	// sparseFractionC controls how many nodes Cluster2/Cluster3 cluster
	// during their initial phase: roughly n/(sparseFractionC·ln n).
	sparseFractionC = 1

	// boundedGrowthFactor is the growth factor below which
	// BoundedClusterPush deactivates a cluster (the paper's 1.1).
	boundedGrowthFactor = 1.1

	// mergeAllIterations caps the MergeAllClusters loop.
	mergeAllIterations = 8
)

// Errors returned by the drivers.
var (
	ErrNoSource = errors.New("core: broadcast needs at least one live source node")
)

// lnN returns ln n, at least 1.
func lnN(n int) float64 {
	v := math.Log(float64(n))
	if v < 1 {
		return 1
	}
	return v
}

// logLogN returns log₂ log₂ n, at least 1.
func logLogN(n int) float64 {
	v := math.Log2(math.Log2(float64(n) + 2))
	if v < 1 {
		return 1
	}
	return v
}

// phaseCap returns the iteration cap for a Θ(log log n) loop, a small
// multiple of log₂ log₂ n.
func phaseCap(n int) int { return int(math.Ceil(4*logLogN(n))) + 8 }

// initialClusterSize returns C'·ln n (at least 2), the sparse-variant target.
func initialClusterSize(n int) int {
	s := int(math.Ceil(initSizeC * lnN(n)))
	if s < 2 {
		s = 2
	}
	return s
}

// cluster1StartSize returns the Cluster1 dissolve threshold and squaring
// start size, dissolveSizeC·ln n (at least 2).
func cluster1StartSize(n int) int {
	s := int(math.Ceil(dissolveSizeC * lnN(n)))
	if s < 2 {
		s = 2
	}
	return s
}

// squareStopSize returns the cluster size at which SquareClusters stops,
// √(n / ln n) as in Algorithm 1 (Algorithm 2 uses the same order).
func squareStopSize(n int) int {
	s := int(math.Sqrt(float64(n) / lnN(n)))
	if s < 2 {
		s = 2
	}
	return s
}

// checkSources validates the source node list against the network.
func checkSources(net *phonecall.Network, sources []int) error {
	live := 0
	for _, s := range sources {
		if s < 0 || s >= net.N() {
			return fmt.Errorf("core: source index %d out of range [0,%d)", s, net.N())
		}
		if !net.IsFailed(s) {
			live++
		}
	}
	if live == 0 {
		return ErrNoSource
	}
	return nil
}

// largestClusterSize returns the size of the largest cluster (local).
func largestClusterSize(cl *cluster.Clustering) int {
	largest := 0
	for _, s := range cl.ClusterSizes() {
		if s > largest {
			largest = s
		}
	}
	return largest
}

// clusterSizePercentile returns the given percentile (0..1) of the cluster
// size distribution, at least fallback (local).
func clusterSizePercentile(cl *cluster.Clustering, pct float64, fallback int) int {
	sizes := cl.ClusterSizes()
	if len(sizes) == 0 {
		return fallback
	}
	values := make([]int, 0, len(sizes))
	for _, s := range sizes {
		values = append(values, s)
	}
	// insertion sort; the number of clusters is small once sizes grow
	for i := 1; i < len(values); i++ {
		for j := i; j > 0 && values[j-1] > values[j]; j-- {
			values[j-1], values[j] = values[j], values[j-1]
		}
	}
	idx := int(pct * float64(len(values)-1))
	v := values[idx]
	if v < fallback {
		return fallback
	}
	return v
}
