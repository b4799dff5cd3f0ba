package core

import (
	"repro/internal/cluster"
	"repro/internal/phonecall"
	"repro/internal/trace"
)

// Cluster1 runs Algorithm 1 of the paper and broadcasts the rumor held by the
// source nodes to the whole network. It demonstrates the ideas behind the
// optimal Θ(log log n) round complexity (Theorem 9) without tuning message or
// bit complexity.
//
// Phases (see Algorithm 1):
//  1. GrowInitialClusters — a 1/(C·ln n) fraction of nodes seed singleton
//     clusters and recruit by random PUSH gossip until ≈90% of nodes are
//     clustered in clusters of size Ω(ln n).
//  2. SquareClusters — repeatedly square the cluster size by activating a
//     1/s fraction of clusters and merging the rest into them.
//  3. MergeAllClusters — merge every cluster into the cluster with the
//     smallest ID.
//  4. UnclusteredNodesPull — remaining unclustered nodes PULL until they join.
//  5. ClusterShare — the rumor is shared within the single cluster.
func Cluster1(net *phonecall.Network, sources []int) (trace.Result, error) {
	if err := checkSources(net, sources); err != nil {
		return trace.Result{}, err
	}
	cl := cluster.New(net)
	for _, s := range sources {
		cl.SetRumor(s)
	}
	rec := trace.NewRecorder(net)

	growInitialClustersDense(cl)
	rec.Mark("GrowInitialClusters")

	squareClusters(cl, cluster1StartSize(net.N()), squareStopSize(net.N()), pickSmallest)
	rec.Mark("SquareClusters")

	mergeAllClusters(cl)
	rec.Mark("MergeAllClusters")

	cl.PullJoin(phaseCap(net.N()))
	rec.Mark("UnclusteredNodesPull")

	cl.ShareRumor()
	rec.Mark("ClusterShare")

	return trace.Summarize("cluster1", net, cl.InformedCount(), rec.Phases()), nil
}
