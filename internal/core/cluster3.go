package core

import (
	"fmt"
	"maps"
	"math"
	"slices"

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
func Cluster3(net *phonecall.Network, delta int) (*cluster.Clustering, trace.Result, error) {
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
	targetSize := initialClusterSize(net.N())
	if targetSize > half/2 && half/2 >= 2 {
		targetSize = half / 2
	}
	growInitialClustersSparse(cl, targetSize)
	rec.Mark("GrowInitialClusters")

	// SquareClusters until sizes reach about √(Δ·ln n), capped at Δ/2.
	stop := int(math.Sqrt(float64(delta) * lnN(net.N())))
	if stop > half {
		stop = half
	}
	if stop < targetSize {
		stop = targetSize
	}
	squareClusters(cl, targetSize, stop, pickFirst)
	rec.Mark("SquareClusters")

	// MergeClusters: activate a ≈10·s/(Δ/2) fraction of clusters; the rest
	// merge into a uniformly random activated cluster that reached them.
	s := clusterSizePercentile(cl, 0.25, targetSize)
	prob := 10 * float64(s) / float64(half)
	if prob > 1 {
		prob = 1
	}
	activateClusters(cl, prob)
	recruitAndMerge(cl, pickFirst, cl.ActiveSet(), mergeInactiveOnly)
	cl.Compress(1)
	rec.Mark("MergeClusters")

	// BoundedClusterPush with continuous resizing keeps every cluster (and
	// hence every leader's per-round fan-in) at Θ(Δ) while recruiting the
	// unclustered nodes.
	boundedClusterPushResized(cl, half)
	rec.Mark("BoundedClusterPush")

	cl.PullJoin(phaseCap(net.N()))
	rec.Mark("UnclusteredNodesPull")

	// Final normalization: split oversized clusters and dissolve undersized
	// ones in one exchange, let the dissolved members re-join, then cap sizes
	// again.
	if delta/4 >= 2 {
		cl.Resize(delta/4, half)
		cl.PullJoin(phaseCap(net.N()))
	}
	cl.Resize(0, half)
	rec.Mark("FinalResize")

	return cl, trace.Summarize("cluster3", net, cl.ClusteredCount(), rec.Phases()), nil
}

// boundedClusterPushResized is Procedure BoundedClusterPush of Algorithm 4:
// the Θ(Δ)-sized clusters recruit by random pushes, and a cluster stops once
// a push grew it by less than boundedGrowthFactor. Unlike Cluster2's planned
// schedule, the growth is measured — each new recruit reports to its leader
// once — because a cluster of size Θ(Δ) cannot read the global clustered
// fraction from its own size. Whenever some cluster outgrew 2·resizeTarget
// the clusters are resized back to Θ(Δ) and reactivated.
func boundedClusterPushResized(cl *cluster.Clustering, resizeTarget int) {
	net := cl.Network()
	n := net.N()
	cl.SetActivation(func(int) bool { return true })
	// Leaders learn their current size once at the start of the phase.
	cl.MeasureSizes()
	for range phaseCap(n) {
		if cl.ActiveLeaderCount() == 0 {
			break
		}
		if cl.ClusteredCount() >= net.LiveCount() {
			break
		}
		// Resizing every iteration would charge Θ(n) messages per iteration
		// for nothing, so only when some cluster actually outgrew the bound.
		if largestClusterSize(cl) >= 2*resizeTarget {
			cl.Resize(0, resizeTarget)
			cl.SetActivation(func(int) bool { return true })
		}
		// ClusterPUSH(follow): unclustered receivers join the pushing cluster.
		cl.RandomPush(
			cl.ActiveSet(),
			cl.Recruit,
			func(j int, m phonecall.Message) {
				if m.Tag != cluster.TagRecruit || len(m.IDs) != 1 || cl.IsClustered(j) {
					return
				}
				cl.Join(j, m.IDs[0])
				cl.SetActive(j, true)
			},
		)
		cl.ReportJoins()
		// Growth check: clusters that grew by less than the threshold stop.
		cl.SetActivation(func(leader int) bool {
			size, prev := cl.Size(leader), cl.PrevSize(leader)
			return cl.IsActive(leader) && !(prev > 0 && float64(size) < boundedGrowthFactor*float64(prev))
		})
	}
}

// DeltaClusteringStats summarizes a Θ(Δ)-clustering for verification: the
// number of clusters and the minimum, median and maximum cluster size.
type DeltaClusteringStats struct {
	Clusters    int
	MinSize     int
	MedianSize  int
	MaxSize     int
	Unclustered int
}

// ClusteringStats computes DeltaClusteringStats for a clustering (local).
func ClusteringStats(cl *cluster.Clustering) DeltaClusteringStats {
	sizes := cl.ClusterSizes()
	stats := DeltaClusteringStats{
		Clusters:    len(sizes),
		Unclustered: cl.Network().LiveCount() - cl.ClusteredCount(),
	}
	if len(sizes) == 0 {
		return stats
	}
	values := slices.Sorted(maps.Values(sizes))
	stats.MinSize = values[0]
	stats.MaxSize = values[len(values)-1]
	stats.MedianSize = values[len(values)/2]
	return stats
}
