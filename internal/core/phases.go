package core

import (
	"math"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/phonecall"
)

// candidatePolicy selects how a node that received several recruiting pushes
// chooses the cluster it reports to its leader.
type candidatePolicy int

const (
	// pickSmallest keeps the smallest received cluster ID (Cluster1,
	// MergeAllClusters).
	pickSmallest candidatePolicy = iota + 1
	// pickFirst keeps the first received cluster ID, which is a uniformly
	// random one among the pushes that reached the node (Cluster2/Cluster3).
	pickFirst
)

// recordCandidate applies the candidate policy at a receiving node.
func recordCandidate(cl *cluster.Clustering, policy candidatePolicy, i int, id phonecall.NodeID) {
	if id == phonecall.NoNode {
		return
	}
	current := cl.Pending(i)
	switch policy {
	case pickSmallest:
		if current == phonecall.NoNode || id < current {
			cl.SetPending(i, id)
		}
	default:
		if current == phonecall.NoNode {
			cl.SetPending(i, id)
		}
	}
}

// seedSingletons seeds singleton clusters with probability p; when no node
// is seeded, which happens only at tiny n, it promotes the first live node so
// that the protocol can proceed.
func seedSingletons(cl *cluster.Clustering, p float64) {
	if cl.SeedSingletons(p) > 0 {
		return
	}
	net := cl.Network()
	for k, w := range net.Live() {
		if w != 0 {
			i := k<<6 + bits.TrailingZeros64(w)
			cl.SetFollow(i, net.ID(i))
			cl.SetActive(i, true)
			return
		}
	}
}

// growInitialClustersDense implements Procedure GrowInitialClusters of
// Algorithm 1: singleton seed clusters recruit unclustered nodes by random
// PUSH gossip until a growTargetFraction of the nodes is clustered (a
// Θ(log log n)-round process).
func growInitialClustersDense(cl *cluster.Clustering) {
	net := cl.Network()
	n := net.N()
	seedProb := 1 / (seedC * lnN(n))
	seedSingletons(cl, seedProb)
	for range phaseCap(n) {
		if float64(cl.ClusteredCount()) >= growTargetFraction*float64(net.LiveCount()) {
			break
		}
		cl.RandomPush(
			nil, // every clustered node pushes its cluster ID
			cl.Recruit,
			func(j int, m phonecall.Message) {
				if m.Tag != cluster.TagRecruit || len(m.IDs) != 1 {
					return
				}
				if !cl.IsClustered(j) {
					cl.SetFollow(j, m.IDs[0])
				}
			},
		)
	}
}

// growInitialClustersSparse implements Procedure GrowInitialClusters of
// Algorithm 2: a much sparser set of seed clusters recruits until roughly
// n/ln n nodes are clustered. Clusters measure their own growth; once a large
// cluster grows by less than a factor 2−1/ln n it deactivates, and large
// clusters are resized so that no cluster exceeds the target size by much.
//
// A leader keeps a running size from join reports instead of re-running
// ClusterSize: each recruit reports to its leader once, in the first
// size-controlled iteration after it joined (so the first such iteration
// counts every member), and a resize tells each new leader its group's size.
func growInitialClustersSparse(cl *cluster.Clustering, targetSize int) {
	net := cl.Network()
	n := net.N()
	// Seed so that (#seeds)·targetSize ≈ n/(sparseFractionC·ln n).
	seedProb := 1 / (sparseFractionC * lnN(n) * float64(targetSize))
	seedSingletons(cl, seedProb)
	growthFactor := 2 - 1/lnN(n)
	clusteredTarget := float64(net.LiveCount()) / lnN(n) * 2
	// A cluster can at most double per push round, so no cluster can reach
	// targetSize before round log₂(targetSize); the size-control rounds
	// (join reports, growth check, ClusterResize) are skipped until then.
	sizeControlFrom := int(math.Floor(math.Log2(float64(targetSize)))) - 1
	if sizeControlFrom < 0 {
		sizeControlFrom = 0
	}
	for iter := range phaseCap(n) {
		if cl.ActiveLeaderCount() == 0 {
			break
		}
		if float64(cl.ClusteredCount()) >= clusteredTarget {
			break
		}
		cl.RandomPush(
			cl.ActiveSet(),
			cl.Recruit,
			func(j int, m phonecall.Message) {
				if m.Tag != cluster.TagRecruit || len(m.IDs) != 1 {
					return
				}
				if !cl.IsClustered(j) {
					cl.Join(j, m.IDs[0])
					// The recruiting cluster is active by construction.
					cl.SetActive(j, true)
				}
			},
		)
		if iter < sizeControlFrom {
			continue
		}
		cl.ReportJoins()
		cl.SetActivation(func(leader int) bool {
			if !cl.IsActive(leader) {
				return false
			}
			size, prev := cl.Size(leader), cl.PrevSize(leader)
			if size >= targetSize && prev > 0 && float64(size) < growthFactor*float64(prev) {
				return false
			}
			return true
		})
		if largestClusterSize(cl) >= 2*targetSize {
			cl.Resize(0, targetSize)
		}
	}
}

// squareClusters implements Procedure SquareClusters (Algorithms 1 and 2):
// clusters of size s are repeatedly merged into clusters of size Θ(s²)
// (Θ(s²/log n) in the sparse variant) until the cluster size reaches
// stopSize. Each iteration costs a constant number of rounds, and the size
// squaring bounds the number of iterations by O(log log n).
//
// ClusterDissolve (first iteration only), ClusterResize and ClusterActivate
// run as one exchange (Clustering.ResizeActivate): one member report and one
// pull instead of five rounds. When no iteration runs, the dissolve runs
// alone.
func squareClusters(cl *cluster.Clustering, startSize, stopSize int, policy candidatePolicy) {
	net := cl.Network()
	n := net.N()
	s := startSize
	// Safeguard against over-aggressive constants at small n: never dissolve
	// more than half of the existing clusters.
	if median := clusterSizePercentile(cl, 0.5, 2); s > median {
		s = median
	}
	dissolveBelow := s
	for range phaseCap(n) {
		if s >= stopSize || largestClusterSize(cl) >= stopSize {
			break
		}
		if cl.ClusteredCount() == 0 {
			break
		}
		cl.ResizeActivate(dissolveBelow, s, 1/float64(s))
		dissolveBelow = 0
		if cl.ActiveLeaderCount() == 0 {
			activateClusters(cl, 1/float64(s))
		}
		for rep := 0; rep < 2; rep++ {
			recruitAndMerge(cl, policy, cl.ActiveSet(), mergeInactiveOnly)
		}
		cl.Compress(1)
		// The paper sets s ← Θ(s²); measure the realized sizes so the next
		// resize/activation matches the clusters actually produced.
		next := clusterSizePercentile(cl, 0.25, s+1)
		if next > stopSize {
			next = stopSize
		}
		if next <= s {
			next = s + 1
		}
		s = next
	}
	if dissolveBelow > 0 && cl.ClusteredCount() > 0 {
		// No squaring iteration ran: SquareClusters still opens with
		// ClusterDissolve(s). A target of n keeps every cluster whole.
		cl.Resize(dissolveBelow, n)
	}
}

// mergeScope selects which clusters are allowed to merge in recruitAndMerge.
type mergeScope int

const (
	mergeInactiveOnly mergeScope = iota + 1
	mergeAnySmallerID
)

// recruitAndMerge runs one ClusterPUSH / relay / ClusterMerge iteration:
// the participating cluster members (every one if participants is nil) push
// their cluster ID to random nodes, receivers relay one candidate to their
// leader, and leaders of eligible clusters merge into a candidate.
func recruitAndMerge(cl *cluster.Clustering, policy candidatePolicy, participants phonecall.NodeSet, scope mergeScope) {
	net := cl.Network()
	cl.RandomPush(
		participants,
		cl.Recruit,
		func(j int, m phonecall.Message) {
			if m.Tag != cluster.TagRecruit || len(m.IDs) != 1 {
				return
			}
			if !cl.IsClustered(j) {
				return
			}
			if scope == mergeInactiveOnly && cl.IsActive(j) {
				return
			}
			if m.IDs[0] == cl.Follow(j) {
				return // a push from the node's own cluster
			}
			recordCandidate(cl, policy, j, m.IDs[0])
		},
	)
	cl.RelayCandidates()
	cl.Merge(func(leader int) (phonecall.NodeID, bool) {
		if scope == mergeInactiveOnly && cl.IsActive(leader) {
			return phonecall.NoNode, false
		}
		candidates := cl.Candidates(leader)
		if len(candidates) == 0 {
			return phonecall.NoNode, false
		}
		own := net.ID(leader)
		switch policy {
		case pickSmallest:
			best := candidates[0]
			for _, c := range candidates[1:] {
				if c < best {
					best = c
				}
			}
			if scope == mergeAnySmallerID && best >= own {
				return phonecall.NoNode, false
			}
			return best, true
		default:
			pick := candidates[net.NodeRNG(leader).Intn(len(candidates))]
			return pick, true
		}
	})
}

// activateClusters runs ClusterActivate(prob) with a driver-side safeguard:
// if by bad luck no cluster activates (only relevant at small n), activation
// is retried a bounded number of times and finally forced for the
// smallest-ID leader.
func activateClusters(cl *cluster.Clustering, prob float64) {
	for attempt := 0; attempt < 5; attempt++ {
		cl.Activate(prob)
		if cl.ActiveLeaderCount() > 0 {
			return
		}
	}
	smallest := smallestLeaderID(cl)
	cl.SetActivation(func(leader int) bool {
		return cl.Network().ID(leader) == smallest
	})
}

// smallestLeaderID returns the smallest live leader ID (local).
func smallestLeaderID(cl *cluster.Clustering) phonecall.NodeID {
	net := cl.Network()
	best := phonecall.NoNode
	for k, w := range net.Live() {
		for ; w != 0; w &= w - 1 {
			i := k<<6 + bits.TrailingZeros64(w)
			if id := net.ID(i); cl.IsLeader(i) && (best == phonecall.NoNode || id < best) {
				best = id
			}
		}
	}
	return best
}

// mergeAllClusters implements Procedure MergeAllClusters: every cluster
// pushes its ID, and every cluster merges towards the smallest ID it
// received. The paper uses two repetitions; the driver repeats until a single
// cluster remains (bounded by mergeAllIterations), which at practical n takes
// two or three repetitions.
func mergeAllClusters(cl *cluster.Clustering) {
	for range mergeAllIterations {
		if cl.ClusteredCount() == 0 || cl.LeaderCount() <= 1 {
			break
		}
		recruitAndMerge(cl, pickSmallest, nil, mergeAnySmallerID)
		cl.Compress(1)
	}
	cl.Compress(1)
}

// boundedClusterPush implements Procedure BoundedClusterPush of Algorithm 2:
// the clusters recruit unclustered nodes by random pushes until growth falls
// below boundedGrowthFactor. This expands the clustered set to Θ(n) while
// sending only O(n) messages: the per-iteration cost is proportional to the
// current cluster sizes, which grow geometrically, so the total telescopes to
// O(n).
//
// After MergeAllClusters there is (w.h.p.) one cluster, so its size S gives
// the clustered fraction S/n and the growth of every push round is
// predictable. Instead of measuring growth after every push (a join-report
// round and an activation pull per push), the members learn S once
// (ClusterSize) and each derives the same schedule, plannedPushes; a
// recruiting push carries the pushes left in Value, so a recruit joins the
// schedule where its recruiter stands. The phase costs 2 + k rounds for k
// pushes.
func boundedClusterPush(cl *cluster.Clustering) {
	net := cl.Network()
	n := net.N()
	cl.MeasureSizes()
	limit := phaseCap(n)
	// left is each node's pushes to go, and pushing the nodes with some.
	left := make([]int32, n)
	pushing := phonecall.NewNodeSet(n)
	setLeft := func(i int, k int32) {
		if (left[i] > 0) != (k > 0) {
			pushing.Put(i, k > 0)
		}
		left[i] = k
	}
	// The phase lasts as long as the longest leader's schedule: a member that
	// got a redirect instead of the size holds a stale one and cannot
	// stretch it.
	pushes := 0
	for k, w := range net.Live() {
		for ; w != 0; w &= w - 1 {
			if i := k<<6 + bits.TrailingZeros64(w); cl.IsClustered(i) {
				setLeft(i, int32(plannedPushes(cl.Size(i), n, limit)))
				if cl.IsLeader(i) {
					pushes = max(pushes, int(left[i]))
				}
			}
		}
	}
	for iter := 0; iter < pushes; iter++ {
		if cl.ClusteredCount() >= net.LiveCount() {
			break
		}
		cl.RandomPush(
			pushing,
			func(i int) phonecall.Message {
				setLeft(i, left[i]-1)
				m := cl.Recruit(i)
				m.Value = uint64(left[i])
				return m
			},
			func(j int, m phonecall.Message) {
				if m.Tag != cluster.TagRecruit || len(m.IDs) != 1 || cl.IsClustered(j) {
					return
				}
				cl.SetFollow(j, m.IDs[0])
				setLeft(j, int32(min(m.Value, uint64(limit))))
			},
		)
	}
}

// plannedPushes returns how many recruiting pushes BoundedClusterPush runs
// when a fraction f = size/n of the nodes is clustered. One push round takes
// f to f + (1−f)(1−e^(−f)) in expectation; the pushes run up to and including
// the first whose predicted growth factor falls below boundedGrowthFactor —
// where the measured rule (deactivate once a push grew the cluster by less
// than the factor) stops — and never more than limit.
func plannedPushes(size, n, limit int) int {
	f := float64(size) / float64(n)
	k := 0
	for k < limit && f > 0 {
		k++
		next := f + (1-f)*(1-math.Exp(-f))
		if next < boundedGrowthFactor*f {
			break
		}
		f = next
	}
	return k
}
