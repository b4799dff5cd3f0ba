package core

import (
	"repro/internal/cluster"
	"repro/internal/phonecall"
	"repro/internal/trace"
)

// Cluster2 runs Algorithm 2 of the paper: the main result (Theorem 2). It
// broadcasts the rumor held by the source nodes in O(log log n) rounds using
// O(1) messages per node on average and O(nb) bits in total.
//
// The difference to Cluster1 is the tight control of how many nodes
// communicate: the initial and squaring phases operate on only Θ(n/log n)
// clustered nodes, a BoundedClusterPush phase then informs a constant
// fraction of the network, and only the final PULL phase involves everyone —
// each node pulling an expected constant number of times.
func Cluster2(net *phonecall.Network, sources []int) (trace.Result, error) {
	if err := checkSources(net, sources); err != nil {
		return trace.Result{}, err
	}
	cl := cluster.New(net)
	for _, s := range sources {
		cl.SetRumor(s)
	}
	rec := trace.NewRecorder(net)

	targetSize := initialClusterSize(net.N())
	growInitialClustersSparse(cl, targetSize)
	rec.Mark("GrowInitialClusters")

	squareClusters(cl, targetSize, squareStopSize(net.N()), pickFirst)
	rec.Mark("SquareClusters")

	mergeAllClusters(cl)
	rec.Mark("MergeAllClusters")

	boundedClusterPush(cl)
	rec.Mark("BoundedClusterPush")

	cl.PullJoin(phaseCap(net.N()))
	rec.Mark("UnclusteredNodesPull")

	cl.ShareRumor()
	rec.Mark("ClusterShare")

	return trace.Summarize("cluster2", net, cl.InformedCount(), rec.Phases()), nil
}
