package core

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/phonecall"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// ClusterPushPull runs Algorithm 3 of the paper on top of a Θ(Δ)-clustering
// computed by Cluster3: it broadcasts the rumor held by the source nodes in
// O(log n / log Δ) additional rounds using O(n) additional messages, while no
// node participates in more than O(Δ) communications per round (Lemma 17 and
// Theorem 4).
func ClusterPushPull(net *phonecall.Network, sources []int, delta int) (trace.Result, error) {
	if err := checkSources(net, sources); err != nil {
		return trace.Result{}, err
	}
	cl, _, err := Cluster3(net, delta)
	if err != nil {
		return trace.Result{}, err
	}
	phases := clusteringPhases(net)
	rec := trace.NewRecorder(net)

	for _, s := range sources {
		cl.SetRumor(s)
	}
	broadcastOnClustering(cl, delta)
	rec.Mark("ClusterPUSH-PULL")

	result := trace.Summarize("clusterpushpull", net, cl.InformedCount(), append(phases, rec.Phases()...))
	return result, nil
}

// broadcastOnClustering is the main loop of Algorithm 3.
func broadcastOnClustering(cl *cluster.Clustering, delta int) {
	net := cl.Network()
	n := net.N()

	// ClusterShare(message): the source's cluster learns the rumor.
	cl.ShareRumor()

	// Each node pushes the rumor at most once, right after its cluster became
	// informed ("newly informed clusters: ClusterPUSH"), which keeps the total
	// number of messages linear in n.
	pushed := phonecall.NewNodeSet(n)
	fresh := phonecall.NewNodeSet(n) // holders that have not pushed yet
	maxIters := pushPullIterations(n, delta)
	for iter := 0; iter < maxIters; iter++ {
		if cl.InformedCount() >= net.LiveCount() {
			break
		}
		for k, w := range cl.RumorSet() {
			fresh[k] = w &^ pushed[k]
		}
		// Newly informed clusters PUSH the rumor to random nodes.
		cl.RandomPush(
			fresh,
			func(i int) phonecall.Message {
				pushed.Put(i, true)
				return phonecall.Message{Tag: cluster.TagRumor, Rumor: true}
			},
			func(j int, m phonecall.Message) {
				if m.Rumor {
					cl.SetRumor(j)
				}
			},
		)
		// ClusterShare: clusters hit by a push inform all their members.
		cl.ShareRumor()
		// Uninformed nodes PULL from a random node.
		uninformedPull(cl)
		cl.ShareRumor()
	}
	cl.ShareRumor()
}

// uninformedPull runs one round in which every uninformed node pulls from a
// uniformly random node and learns the rumor if the responder has it: the
// decision table's PULL step.
func uninformedPull(cl *cluster.Clustering) {
	call, payload, respond, deliver := scenario.AlgoPull.Step(cl.HasRumor, cl.SetRumor,
		phonecall.Message{Tag: cluster.TagRumor, Rumor: true})
	cl.Network().ExecCalls(nil, call, payload, respond, deliver)
}

// pushPullIterations returns the iteration cap Θ(log n / log Δ) for the main
// loop of Algorithm 3.
func pushPullIterations(n, delta int) int {
	logDelta := math.Log2(float64(delta))
	if logDelta < 1 {
		logDelta = 1
	}
	return int(math.Ceil(2*math.Log2(float64(n))/logDelta)) + 6
}

// clusteringPhases summarizes the cost accumulated so far (the Δ-clustering
// construction) as a single phase, so the combined result shows the
// clustering cost followed by the broadcast cost.
func clusteringPhases(net *phonecall.Network) []trace.Phase {
	m := net.Metrics()
	return []trace.Phase{{
		Name:     "Cluster3(Δ) total",
		Rounds:   m.Rounds,
		Messages: m.TotalMessages(),
		Bits:     m.Bits,
	}}
}
