package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/phonecall"
	"repro/internal/trace"
)

// MinDelta is the smallest per-round communication bound supported by
// Cluster3. The paper assumes Δ = log^ω(1) n; below this value the clustering
// machinery degenerates.
const MinDelta = 8

// Cluster3 runs Algorithm 4 of the paper: it computes a Θ(Δ)-clustering — a
// clustering in which every node is clustered and all cluster sizes are
// within a constant factor of Δ — in O(log log n) rounds using O(n) messages,
// while no node has to answer more than O(Δ) requests in any round
// (Theorem 18). The returned clustering can then be used by ClusterPushPull
// to broadcast with bounded per-node communication.
func Cluster3(net *phonecall.Network, delta int, params Params) (*cluster.Clustering, trace.Result, error) {
	p := params.withDefaults()
	if delta < MinDelta {
		return nil, trace.Result{}, fmt.Errorf("core: delta %d below minimum %d", delta, MinDelta)
	}
	if delta > net.N() {
		delta = net.N()
	}
	cl := cluster.New(net)
	rec := trace.NewRecorder(net)

	half := delta / 2
	if half < 2 {
		half = 2
	}

	// GrowInitialClusters, as in Algorithm 2, but never above Δ.
	targetSize := p.initialClusterSize(net.N())
	if targetSize > half/2 && half/2 >= 2 {
		targetSize = half / 2
	}
	growInitialClustersSparse(cl, p, targetSize)
	rec.Mark("GrowInitialClusters")

	// SquareClusters until sizes reach about √(Δ·ln n), capped at Δ/2.
	stop := int(math.Sqrt(float64(delta) * lnN(net.N())))
	if stop > half {
		stop = half
	}
	if stop < targetSize {
		stop = targetSize
	}
	squareClusters(cl, p, targetSize, stop, pickFirst)
	rec.Mark("SquareClusters")

	// MergeClusters: activate a ≈10·s/(Δ/2) fraction of clusters; the rest
	// merge into a uniformly random activated cluster that reached them.
	s := clusterSizePercentile(cl, 0.25, targetSize)
	prob := 10 * float64(s) / float64(half)
	if prob > 1 {
		prob = 1
	}
	activateClusters(cl, prob)
	recruitAndMerge(cl, pickFirst, func(i int) bool { return cl.IsActive(i) }, mergeInactiveOnly)
	cl.Compress(1)
	rec.Mark("MergeClusters")

	// BoundedClusterPush with continuous resizing keeps every cluster (and
	// hence every leader's per-round fan-in) at Θ(Δ) while recruiting the
	// unclustered nodes.
	boundedClusterPush(cl, p, half)
	rec.Mark("BoundedClusterPush")

	cl.PullJoin(pullJoinRounds(p, net.N()))
	rec.Mark("UnclusteredNodesPull")

	// Final normalization: split oversized clusters, dissolve undersized ones
	// and let their members re-join, then cap sizes again.
	cl.Resize(half)
	if delta/4 >= 2 {
		cl.Dissolve(delta / 4)
		cl.PullJoin(pullJoinRounds(p, net.N()))
		cl.Resize(half)
	}
	rec.Mark("FinalResize")

	return cl, trace.Summarize("cluster3", net, cl.ClusteredCount(), rec.Phases()), nil
}

// DeltaClusteringStats summarizes a Θ(Δ)-clustering for verification: the
// number of clusters and the minimum, median and maximum cluster size.
type DeltaClusteringStats struct {
	Clusters   int
	MinSize    int
	MedianSize int
	MaxSize    int
	Unclusterd int
}

// ClusteringStats computes DeltaClusteringStats for a clustering (local).
func ClusteringStats(cl *cluster.Clustering) DeltaClusteringStats {
	sizes := cl.ClusterSizes()
	stats := DeltaClusteringStats{Clusters: len(sizes)}
	net := cl.Network()
	for i := 0; i < net.N(); i++ {
		if !net.IsFailed(i) && !cl.IsClustered(i) {
			stats.Unclusterd++
		}
	}
	if len(sizes) == 0 {
		return stats
	}
	values := make([]int, 0, len(sizes))
	for _, s := range sizes {
		values = append(values, s)
	}
	for i := 1; i < len(values); i++ {
		for j := i; j > 0 && values[j-1] > values[j]; j-- {
			values[j-1], values[j] = values[j], values[j-1]
		}
	}
	stats.MinSize = values[0]
	stats.MaxSize = values[len(values)-1]
	stats.MedianSize = values[len(values)/2]
	return stats
}
