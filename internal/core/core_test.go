package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/phonecall"
	"repro/internal/trace"
)

func newNet(t testing.TB, n int, seed uint64) *phonecall.Network {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatalf("phonecall.New: %v", err)
	}
	return net
}

func requireAllInformed(t *testing.T, r trace.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("broadcast failed: %v", err)
	}
	if !r.AllInformed {
		t.Fatalf("not all nodes informed: %d/%d (%s)", r.Informed, r.Live, r.Algorithm)
	}
}

func TestCluster1InformsAllNodes(t *testing.T) {
	for _, n := range []int{500, 1000, 5000} {
		for seed := uint64(1); seed <= 3; seed++ {
			net := newNet(t, n, seed)
			r, err := Cluster1(net, []int{0})
			requireAllInformed(t, r, err)
		}
	}
}

func TestCluster2InformsAllNodes(t *testing.T) {
	for _, n := range []int{1000, 5000, 20000} {
		for seed := uint64(1); seed <= 3; seed++ {
			net := newNet(t, n, seed)
			r, err := Cluster2(net, []int{0})
			requireAllInformed(t, r, err)
		}
	}
}

func TestCluster1RoundsScaleDoublyLogarithmically(t *testing.T) {
	// Rounds at n=100k should be within a small constant factor of rounds at
	// n=1k, i.e. far below the log n growth a single-scale algorithm shows.
	small := newNet(t, 1000, 7)
	rSmall, err := Cluster1(small, []int{0})
	requireAllInformed(t, rSmall, err)
	large := newNet(t, 100000, 7)
	rLarge, err := Cluster1(large, []int{0})
	requireAllInformed(t, rLarge, err)
	if float64(rLarge.Rounds) > 2.5*float64(rSmall.Rounds) {
		t.Fatalf("rounds grew from %d (n=1k) to %d (n=100k); expected log log n scaling", rSmall.Rounds, rLarge.Rounds)
	}
}

func TestCluster2MessageComplexityIsLinear(t *testing.T) {
	net := newNet(t, 50000, 3)
	r, err := Cluster2(net, []int{42})
	requireAllInformed(t, r, err)
	// "O(1) messages per node": the constant measured at laptop scale is
	// around 20; the important property (tested below and in the benchmarks)
	// is that it does not grow with n.
	if r.MessagesPerNode > 30 {
		t.Fatalf("messages per node = %.2f, want a constant around 20", r.MessagesPerNode)
	}
	// Bit complexity O(nb): allow a generous constant.
	bitsPerNode := float64(r.Bits) / float64(r.N)
	bound := 40 * float64(net.PayloadBits())
	if bitsPerNode > bound {
		t.Fatalf("bits per node = %.0f, want O(b) = about %d", bitsPerNode, net.PayloadBits())
	}
}

func TestCluster2MessagesPerNodeDoNotGrowWithN(t *testing.T) {
	run := func(n int) float64 {
		net := newNet(t, n, 9)
		r, err := Cluster2(net, []int{0})
		requireAllInformed(t, r, err)
		return r.MessagesPerNode
	}
	small, large := run(10000), run(100000)
	if large > small*1.25 {
		t.Fatalf("messages per node grew from %.2f (n=10k) to %.2f (n=100k); want O(1)", small, large)
	}
}

func TestCluster2RoundsScaleDoublyLogarithmically(t *testing.T) {
	run := func(n int) int {
		net := newNet(t, n, 5)
		r, err := Cluster2(net, []int{0})
		requireAllInformed(t, r, err)
		return r.Rounds
	}
	small, large := run(1000), run(100000)
	// log n doubles between these sizes while log log n grows by ~20%; the
	// measured rounds must follow the latter.
	if float64(large) > 1.8*float64(small) {
		t.Fatalf("rounds grew from %d (n=1k) to %d (n=100k); expected log log n scaling", small, large)
	}
	logLog := math.Log2(math.Log2(100000))
	if float64(large) > 25*logLog+30 {
		t.Fatalf("rounds = %d at n=100k, unreasonably large for O(log log n)", large)
	}
}

func TestCluster3ProducesDeltaClustering(t *testing.T) {
	const n = 20000
	const delta = 128
	net := newNet(t, n, 11)
	cl, res, err := Cluster3(net, delta)
	if err != nil {
		t.Fatalf("Cluster3: %v", err)
	}
	stats := ClusteringStats(cl)
	if stats.Unclustered > 0 {
		t.Fatalf("%d nodes left unclustered", stats.Unclustered)
	}
	if stats.MaxSize >= 2*delta {
		t.Fatalf("max cluster size %d >= 2Δ = %d", stats.MaxSize, 2*delta)
	}
	if stats.MinSize < delta/8 {
		t.Fatalf("min cluster size %d < Δ/8 = %d", stats.MinSize, delta/8)
	}
	if res.MaxCommsPerRound > 4*delta {
		t.Fatalf("observed per-round communications %d exceed 4Δ = %d", res.MaxCommsPerRound, 4*delta)
	}
}

// TestActivateClustersForcesSmallestLeader: when no cluster activates,
// activateClusters activates exactly the live leader with the smallest ID,
// and that cluster's members learn it; a failed smallest leader is passed
// over for the next one.
func TestActivateClustersForcesSmallestLeader(t *testing.T) {
	const n, size = 2000, 100
	for _, failSmallest := range []bool{false, true} {
		net := newNet(t, n, 4)
		cl := cluster.New(net)
		var leaders []int
		for start := 0; start < n; start += size {
			leaders = append(leaders, start)
			for i := start; i < start+size; i++ {
				cl.SetFollow(i, net.ID(start))
			}
		}
		slices.SortFunc(leaders, func(a, b int) int { return cmp.Compare(net.ID(a), net.ID(b)) })
		if failSmallest {
			net.Fail(leaders[0])
			leaders = leaders[1:]
		}
		activateClusters(cl, 0)
		if got := cl.ActiveLeaderCount(); got != 1 {
			t.Fatalf("failSmallest=%v: %d active leaders, want 1", failSmallest, got)
		}
		for i := leaders[0]; i < leaders[0]+size; i++ {
			if !cl.IsActive(i) {
				t.Fatalf("failSmallest=%v: node %d of the smallest live leader's cluster is not active", failSmallest, i)
			}
		}
	}
}

func TestCluster3RejectsTinyDelta(t *testing.T) {
	net := newNet(t, 1000, 1)
	if _, _, err := Cluster3(net, 2); err == nil {
		t.Fatal("Cluster3 should reject Δ below MinDelta")
	}
}

func TestClusterPushPullInformsAllNodes(t *testing.T) {
	net := newNet(t, 20000, 13)
	r, err := ClusterPushPull(net, []int{7}, 256)
	requireAllInformed(t, r, err)
	if r.MaxCommsPerRound > 4*256 {
		t.Fatalf("observed Δ = %d exceeds 4·256", r.MaxCommsPerRound)
	}
}

func TestBroadcastRejectsBadSources(t *testing.T) {
	net := newNet(t, 100, 1)
	if _, err := Cluster1(net, nil); err == nil {
		t.Fatal("want error for empty source list")
	}
	if _, err := Cluster2(net, []int{-1}); err == nil {
		t.Fatal("want error for out-of-range source")
	}
	net.Fail(3)
	if _, err := Cluster2(net, []int{3}); err == nil {
		t.Fatal("want error when all sources failed")
	}
}

func TestCluster2DeterministicAcrossRuns(t *testing.T) {
	runOnce := func() trace.Result {
		net := newNet(t, 5000, 99)
		r, err := Cluster2(net, []int{0})
		requireAllInformed(t, r, err)
		return r
	}
	a, b := runOnce(), runOnce()
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Bits != b.Bits {
		t.Fatalf("same seed produced different executions: %+v vs %+v", a, b)
	}
}

func TestCluster2FaultTolerance(t *testing.T) {
	const n = 20000
	const failures = 2000 // 10%
	net := newNet(t, n, 21)
	// Oblivious adversary: fail a fixed block of indexes (independent of the
	// algorithm's randomness).
	failed := make([]int, 0, failures)
	for i := 0; i < failures; i++ {
		failed = append(failed, 2*i) // every other node in the low range
	}
	net.Fail(failed...)
	r, err := Cluster2(net, []int{1})
	if err != nil {
		t.Fatalf("Cluster2: %v", err)
	}
	uninformed := r.UninformedSurvivors()
	if float64(uninformed) > 0.05*float64(failures) {
		t.Fatalf("uninformed survivors = %d, want o(F) with F=%d", uninformed, failures)
	}
}

func TestPhaseAccountingCoversAllRounds(t *testing.T) {
	net := newNet(t, 5000, 17)
	r, err := Cluster2(net, []int{0})
	requireAllInformed(t, r, err)
	sum := 0
	for _, ph := range r.Phases {
		sum += ph.Rounds
	}
	if sum != r.Rounds {
		t.Fatalf("phase rounds sum to %d, total is %d", sum, r.Rounds)
	}
}

// TestCluster2PhaseRounds pins Cluster2's per-phase round table at n = 10⁵,
// seed 1, so a phase whose cost changes fails a named test, not only golden
// bytes. DESIGN.md ("Cluster2's round budget") derives each row.
func TestCluster2PhaseRounds(t *testing.T) {
	net := newNet(t, 100000, 1)
	r, err := Cluster2(net, []int{0})
	requireAllInformed(t, r, err)
	want := []struct {
		name   string
		rounds int
	}{
		{"GrowInitialClusters", 15},
		{"SquareClusters", 9},
		{"MergeAllClusters", 9},
		{"BoundedClusterPush", 7},
		{"UnclusteredNodesPull", 3},
		{"ClusterShare", 2},
	}
	if len(r.Phases) != len(want) {
		t.Fatalf("got %d phases, want %d: %+v", len(r.Phases), len(want), r.Phases)
	}
	for k, w := range want {
		if got := r.Phases[k]; got.Name != w.name || got.Rounds != w.rounds {
			t.Errorf("phase %d = %s with %d rounds, want %s with %d", k, got.Name, got.Rounds, w.name, w.rounds)
		}
	}
}

// TestCluster2SurvivesMidRunCrash: a tenth of the nodes, leaders among them,
// crash at round 5. Members of a crashed leader notice their unanswered pulls,
// leave the dead cluster and are recruited into a live one, so the source's
// ClusterShare relay reaches a live leader and the uninformed survivors stay
// within F (Theorem 19's o(F) at this size).
func TestCluster2SurvivesMidRunCrash(t *testing.T) {
	const n, f = 4000, 400
	for seed := uint64(1); seed <= 5; seed++ {
		net := newNet(t, n, seed)
		victims := make([]int, 0, f)
		for i := 1; i < n && len(victims) < f; i += n / f {
			victims = append(victims, i)
		}
		net.OnRoundStart(func(round int) {
			if round == 5 {
				net.Fail(victims...)
			}
		})
		r, err := Cluster2(net, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if u := r.UninformedSurvivors(); u > f {
			t.Errorf("seed %d: %d of %d survivors uninformed, want at most F = %d", seed, u, r.Live, f)
		}
	}
}
