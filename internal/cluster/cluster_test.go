package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phonecall"
)

func newNet(t testing.TB, n int, seed uint64) *phonecall.Network {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatalf("phonecall.New: %v", err)
	}
	return net
}

// newClustering is New for a test: when the test ends, its clustering's
// derived bitmaps must still equal the state they are derived from.
func newClustering(t *testing.T, net *phonecall.Network) *Clustering {
	c := New(net)
	t.Cleanup(func() { checkSets(t, c) })
	return c
}

// checkSets asserts that every bitmap derived from follow and pending
// equals it, node by node, and that no bitmap has a bit past the last node.
func checkSets(t *testing.T, c *Clustering) {
	t.Helper()
	net := c.Network()
	n := net.N()
	derived := []struct {
		name string
		set  phonecall.NodeSet
		has  func(i int) bool
	}{
		{"clustered", c.sets.clustered, func(i int) bool { return c.follow[i] != phonecall.NoNode }},
		{"leader", c.sets.leader, func(i int) bool { return c.follow[i] == net.ID(i) }},
		{"pending", c.sets.pending, func(i int) bool { return c.pending[i] != phonecall.NoNode }},
	}
	for _, s := range derived {
		for i := 0; i < n; i++ {
			if s.set.Has(i) != s.has(i) {
				t.Fatalf("node %d: %s bit %v, its state says %v", i, s.name, s.set.Has(i), s.has(i))
			}
		}
	}
	all := map[string]phonecall.NodeSet{
		"clustered": c.sets.clustered, "leader": c.sets.leader, "active": c.sets.active,
		"joined": c.sets.joined, "pending": c.sets.pending, "rumor": c.sets.rumor,
	}
	for name, set := range all {
		if rest := n & 63; rest != 0 && set[len(set)-1]>>rest != 0 {
			t.Fatalf("%s set has bits past node %d", name, n-1)
		}
	}
}

// checkInvariant verifies the clustering invariant: every clustered node
// either is a leader or follows a node that is a leader (depth-one follow
// graph), and every node's size bookkeeping is non-negative; and every
// derived bitmap equals the state it is derived from (checkSets).
func checkInvariant(t *testing.T, c *Clustering, allowStale bool) {
	t.Helper()
	checkSets(t, c)
	net := c.Network()
	for i := 0; i < net.N(); i++ {
		if net.IsFailed(i) || !c.IsClustered(i) {
			continue
		}
		leaderIdx, ok := net.IndexOf(c.Follow(i))
		if !ok {
			t.Fatalf("node %d follows unknown ID %d", i, c.Follow(i))
		}
		if !allowStale && !c.IsLeader(leaderIdx) {
			t.Fatalf("node %d follows %d which is not a leader", i, leaderIdx)
		}
	}
}

func seedEvenClusters(t *testing.T, net *phonecall.Network, clusterSize int) *Clustering {
	t.Helper()
	c := newClustering(t, net)
	// Deterministically partition nodes into consecutive groups; the largest
	// ID in each group is the leader (mirrors what Resize produces).
	n := net.N()
	for start := 0; start < n; start += clusterSize {
		end := start + clusterSize
		if end > n {
			end = n
		}
		leader := start
		for i := start; i < end; i++ {
			if net.ID(i) > net.ID(leader) {
				leader = i
			}
		}
		for i := start; i < end; i++ {
			c.SetFollow(i, net.ID(leader))
		}
	}
	checkInvariant(t, c, false)
	return c
}

// TestClusteringBytesPerNode is the clustering's memory lock, read from the
// runtime's cumulative allocation counter: New allocates a fixed number of
// bytes per node — the per-node state of the primitives, with nothing sized
// for a message that has not been sent (a slice header per node, 24 B, fails
// the bound) — and a Resize, ResizeActivate, RelayCandidates and Merge add
// only the lists' offsets and their ID arena (21.3 B/node here; the n-sized
// index arrays and targets they replaced made 34.4). The engine is warmed by
// the same calls on another clustering first, so that only the clustering's
// own allocations count.
func TestClusteringBytesPerNode(t *testing.T) {
	const (
		n         = 1 << 16
		newBound  = 56 // bytes per node
		listBound = 24 // bytes per node
	)
	net := newNet(t, n, 3)
	perNode := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	var c *Clustering
	newBytes := perNode(func() { c = New(net) })
	t.Logf("New: %.1f B per node", newBytes)
	if newBytes > newBound {
		t.Errorf("New allocates %.1f B per node, want at most %d", newBytes, newBound)
	}
	primitives := func(c *Clustering) {
		for i := 0; i < n; i++ {
			c.SetFollow(i, net.ID(i|63)) // clusters of 64
		}
		c.Resize(0, 16)
		c.ResizeActivate(2, 8, 0.5)
		c.RelayCandidates()
		c.Merge(func(int) (phonecall.NodeID, bool) { return phonecall.NoNode, false })
	}
	primitives(New(net))
	listBytes := perNode(func() { primitives(c) })
	t.Logf("Resize, ResizeActivate, RelayCandidates and Merge: %.1f B per node", listBytes)
	if listBytes > listBound {
		t.Errorf("the primitives allocate %.1f B per node, want at most %d", listBytes, listBound)
	}
	runtime.KeepAlive(c)
}

func TestSeedSingletons(t *testing.T) {
	net := newNet(t, 10000, 1)
	c := newClustering(t, net)
	leaders := c.SeedSingletons(0.1)
	if leaders < 800 || leaders > 1200 {
		t.Fatalf("seeded %d leaders, want about 1000", leaders)
	}
	if c.ClusteredCount() != leaders || c.LeaderCount() != leaders {
		t.Fatalf("clustered=%d leaders=%d, want both %d", c.ClusteredCount(), c.LeaderCount(), leaders)
	}
	checkInvariant(t, c, false)
	if c.SeedSingletons(0) != 0 {
		t.Fatal("probability 0 should seed nothing")
	}
}

func TestMeasureSizes(t *testing.T) {
	net := newNet(t, 1000, 2)
	c := seedEvenClusters(t, net, 10)
	c.MeasureSizes()
	for i := 0; i < net.N(); i++ {
		if got := c.Size(i); got != 10 {
			t.Fatalf("node %d learned size %d, want 10", i, got)
		}
	}
}

// TestReportJoins: after a ClusterSize, a leader's running size from join
// reports equals what a second ClusterSize would measure, and members that
// already reported do not report again.
func TestReportJoins(t *testing.T) {
	net := newNet(t, 1000, 16)
	c := seedEvenClusters(t, net, 10)
	for i := 0; i < net.N(); i += 2 {
		if !c.IsLeader(i) {
			c.SetFollow(i, phonecall.NoNode) // half of the members leave
		}
	}
	c.MeasureSizes()
	before := net.Metrics().TotalMessages()
	joined := 0
	for i := 0; i < net.N(); i += 2 {
		if !c.IsClustered(i) {
			c.Join(i, c.Follow(i+1))
			joined++
		}
	}
	c.ReportJoins()
	if sent := net.Metrics().TotalMessages() - before; sent != int64(joined) {
		t.Fatalf("join reports sent %d messages, want one per new member (%d)", sent, joined)
	}
	sizes := c.ClusterSizes()
	for i := 0; i < net.N(); i++ {
		if c.IsLeader(i) && c.Size(i) != sizes[net.ID(i)] {
			t.Fatalf("leader %d has running size %d, its cluster has %d", i, c.Size(i), sizes[net.ID(i)])
		}
	}
	c.ReportJoins()
	for i := 0; i < net.N(); i++ {
		if c.IsLeader(i) && c.Size(i) != c.PrevSize(i) {
			t.Fatalf("leader %d grew from %d to %d without joins", i, c.PrevSize(i), c.Size(i))
		}
	}
}

func TestActivateProbabilityExtremes(t *testing.T) {
	net := newNet(t, 2000, 3)
	c := seedEvenClusters(t, net, 20)
	c.Activate(1)
	for i := 0; i < net.N(); i++ {
		if !c.IsActive(i) {
			t.Fatalf("node %d inactive after Activate(1)", i)
		}
	}
	c.Activate(0)
	for i := 0; i < net.N(); i++ {
		if c.IsActive(i) {
			t.Fatalf("node %d active after Activate(0)", i)
		}
	}
}

func TestActivateFraction(t *testing.T) {
	net := newNet(t, 20000, 4)
	c := seedEvenClusters(t, net, 10) // 2000 clusters
	c.Activate(0.25)
	activeLeaders := 0
	for i := 0; i < net.N(); i++ {
		if c.IsLeader(i) && c.IsActive(i) {
			activeLeaders++
		}
	}
	if activeLeaders < 350 || activeLeaders > 650 {
		t.Fatalf("activated %d of 2000 clusters, want about 500", activeLeaders)
	}
	// Followers must agree with their leader.
	for i := 0; i < net.N(); i++ {
		leaderIdx, _ := net.IndexOf(c.Follow(i))
		if c.IsActive(i) != c.IsActive(leaderIdx) {
			t.Fatalf("node %d activation disagrees with its leader", i)
		}
	}
}

func TestDissolve(t *testing.T) {
	net := newNet(t, 1000, 5)
	c := newClustering(t, net)
	// Clusters of size 5 (indexes 0..499) and size 25 (indexes 500..999).
	for start := 0; start < 500; start += 5 {
		leader := net.ID(start)
		for i := start; i < start+5; i++ {
			if net.ID(i) > leader {
				leader = net.ID(i)
			}
		}
		for i := start; i < start+5; i++ {
			c.SetFollow(i, leader)
		}
	}
	for start := 500; start < 1000; start += 25 {
		leader := net.ID(start)
		for i := start; i < start+25; i++ {
			if net.ID(i) > leader {
				leader = net.ID(i)
			}
		}
		for i := start; i < start+25; i++ {
			c.SetFollow(i, leader)
		}
	}
	leaders := make([]phonecall.NodeID, net.N())
	for i := range leaders {
		leaders[i] = c.Follow(i)
	}
	c.Resize(10, 1000) // groups of up to 1000: dissolve only
	for i := 0; i < 500; i++ {
		if c.IsClustered(i) {
			t.Fatalf("node %d of a size-5 cluster should have been dissolved", i)
		}
	}
	for i := 500; i < 1000; i++ {
		if c.Follow(i) != leaders[i] {
			t.Fatalf("node %d of a size-25 cluster should have kept its leader", i)
		}
	}
	checkInvariant(t, c, false)
}

func TestResizeCapsClusterSizes(t *testing.T) {
	net := newNet(t, 1000, 6)
	c := seedEvenClusters(t, net, 200) // five clusters of 200
	c.Resize(0, 30)
	sizes := c.ClusterSizes()
	if len(sizes) < 25 {
		t.Fatalf("resize produced only %d clusters", len(sizes))
	}
	for leader, size := range sizes {
		if size >= 2*30 {
			t.Fatalf("cluster %d has size %d, want < 2s = 60", leader, size)
		}
		if size < 10 {
			t.Fatalf("cluster %d has size %d, suspiciously small", leader, size)
		}
	}
	if c.ClusteredCount() != 1000 {
		t.Fatalf("resize must keep every node clustered, got %d", c.ClusteredCount())
	}
	checkInvariant(t, c, false)
}

func TestResizeProperty(t *testing.T) {
	// Property: for any cluster size and any resize target, after Resize every
	// cluster has size < 2*target and no node becomes unclustered.
	f := func(seed uint64, sizeSel, targetSel uint8) bool {
		n := 600
		clusterSize := int(sizeSel)%120 + 2
		target := int(targetSel)%40 + 2
		net, err := phonecall.New(phonecall.Config{N: n, Seed: seed})
		if err != nil {
			return false
		}
		c := newClustering(t, net)
		for start := 0; start < n; start += clusterSize {
			end := start + clusterSize
			if end > n {
				end = n
			}
			leader := start
			for i := start; i < end; i++ {
				if net.ID(i) > net.ID(leader) {
					leader = i
				}
			}
			for i := start; i < end; i++ {
				c.SetFollow(i, net.ID(leader))
			}
		}
		c.Resize(0, target)
		if c.ClusteredCount() != n {
			return false
		}
		for _, size := range c.ClusterSizes() {
			if size >= 2*target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAndCompress(t *testing.T) {
	net := newNet(t, 300, 7)
	c := seedEvenClusters(t, net, 30)
	// Merge every cluster into the cluster with the globally smallest leader ID.
	smallest := phonecall.NoNode
	for _, id := range leaderIDs(c) {
		if smallest == phonecall.NoNode || id < smallest {
			smallest = id
		}
	}
	c.Merge(func(leader int) (phonecall.NodeID, bool) {
		if net.ID(leader) == smallest {
			return phonecall.NoNode, false
		}
		return smallest, true
	})
	c.Compress(2)
	checkInvariant(t, c, false)
	if got := c.LeaderCount(); got != 1 {
		t.Fatalf("after merging all into one, leader count = %d", got)
	}
	if frac := c.LargestClusterFraction(); frac != 1 {
		t.Fatalf("largest cluster fraction = %v, want 1", frac)
	}
}

// TestMergeLeadersMadeSinceRelay: leaders made after RelayCandidates laid
// out the lists (here: every leader, over an arena the relay left empty)
// have no candidates and still merge, each taking its target's slot past
// the laid-out room.
func TestMergeLeadersMadeSinceRelay(t *testing.T) {
	net := newNet(t, 300, 19)
	c := newClustering(t, net)
	c.RelayCandidates() // no leader yet: nothing laid out
	for i := 0; i < net.N(); i++ {
		c.SetFollow(i, net.ID(i-i%30))
	}
	smallest := slices.Min(leaderIDs(c))
	c.Merge(func(leader int) (phonecall.NodeID, bool) {
		if len(c.Candidates(leader)) != 0 {
			t.Fatalf("leader %d made after the relay has candidates %v", leader, c.Candidates(leader))
		}
		return smallest, true
	})
	c.Compress(1)
	checkInvariant(t, c, false)
	if got := c.LeaderCount(); got != 1 {
		t.Fatalf("after merging all into one, leader count = %d", got)
	}
}

func leaderIDs(c *Clustering) []phonecall.NodeID {
	var ids []phonecall.NodeID
	net := c.Network()
	for i := 0; i < net.N(); i++ {
		if c.IsLeader(i) {
			ids = append(ids, net.ID(i))
		}
	}
	return ids
}

// TestResizeActivate: the fused exchange dissolves small clusters, splits the
// rest into groups whose members agree with their new leader on activation,
// activates about a p fraction of the groups, and tells every node its
// group's exact size.
func TestResizeActivate(t *testing.T) {
	net := newNet(t, 20000, 14)
	c := newClustering(t, net)
	// Clusters of size 4 (indexes 0..3999) and size 200 (the rest).
	for start := 0; start < net.N(); {
		size := 200
		if start < 4000 {
			size = 4
		}
		leader := start
		for i := start; i < start+size; i++ {
			if net.ID(i) > net.ID(leader) {
				leader = i
			}
		}
		for i := start; i < start+size; i++ {
			c.SetFollow(i, net.ID(leader))
		}
		start += size
	}
	c.ResizeActivate(5, 10, 0.25)
	for i := 0; i < 4000; i++ {
		if c.IsClustered(i) || c.IsActive(i) {
			t.Fatalf("node %d of a size-4 cluster survived the dissolve", i)
		}
	}
	checkInvariant(t, c, false)
	sizes := c.ClusterSizes()
	active := 0
	for i := 4000; i < net.N(); i++ {
		leader, _ := net.IndexOf(c.Follow(i))
		if c.IsActive(i) != c.IsActive(leader) {
			t.Fatalf("node %d activation disagrees with its leader", i)
		}
		if c.Size(i) != sizes[c.Follow(i)] {
			t.Fatalf("node %d learned size %d, its group has %d", i, c.Size(i), sizes[c.Follow(i)])
		}
		if c.IsLeader(i) && c.IsActive(i) {
			active++
		}
	}
	if len(sizes) != 1600 {
		t.Fatalf("resize produced %d groups, want 80 clusters × 20 groups", len(sizes))
	}
	if active < 300 || active > 500 {
		t.Fatalf("activated %d of 1600 groups, want about 400", active)
	}
}

// TestMembersOfCrashedLeaderLeave: a member whose pulls to its leader go
// unanswered twice in a row treats the leader as crashed and becomes
// unclustered; a later PullJoin places it in a live cluster. One miss — a
// call lost in transit looks the same — is tolerated.
func TestMembersOfCrashedLeaderLeave(t *testing.T) {
	net := newNet(t, 1000, 15)
	c := seedEvenClusters(t, net, 100)
	dead, _ := net.IndexOf(c.Follow(0))
	net.Fail(dead)
	c.SetActivation(func(int) bool { return true })
	if got := c.ClusteredCount(); got != 999 {
		t.Fatalf("clustered = %d after one unanswered pull, want every live node (999)", got)
	}
	c.SetActivation(func(int) bool { return true })
	for i := 0; i < 100; i++ {
		if i != dead && c.IsClustered(i) {
			t.Fatalf("node %d still follows its crashed leader", i)
		}
	}
	if got := c.ClusteredCount(); got != 900 {
		t.Fatalf("clustered = %d, want the 900 nodes of live clusters", got)
	}
	c.PullJoin(20)
	if c.ClusteredCount() != net.LiveCount() {
		t.Fatalf("PullJoin left %d live nodes unclustered", net.LiveCount()-c.ClusteredCount())
	}
	checkInvariant(t, c, false)
}

// TestLeaderRevivedAtReportRound: a leader that was down when Resize
// started, and that a round hook (a scenario's JoinAt) revives at the start
// of the report round, is alive during that round and so acts as a leader in
// it: it takes its members' reports and splits its cluster. No round passes
// while it is down, so every node — the late leader and its members
// included — ends exactly as on a network where it never went down. The
// first Resize keeps every leader and leaves its list behind, so a late
// leader that read a stale list would land in another leader's.
func TestLeaderRevivedAtReportRound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		minSize  int
		activate bool
	}{
		{"keep", 0, false},
		{"dissolve", 2, false},
		{"activate", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var late int
			run := func(down bool) *Clustering {
				net := newNet(t, 1000, 16)
				c := seedEvenClusters(t, net, 100)
				c.Resize(0, 200)
				late = -1
				for i, leaders := 0, 0; late < 0; i++ {
					if c.IsLeader(i) {
						if leaders++; leaders == 5 {
							late = i // a middle leader: its old list is another's now
						}
					}
				}
				if down {
					net.Fail(late)
					report := net.Round() + 1
					net.OnRoundStart(func(round int) {
						if round == report {
							net.Revive(late)
						}
					})
				}
				if tc.activate {
					c.ResizeActivate(tc.minSize, 25, 0.5)
				} else {
					c.Resize(tc.minSize, 25)
				}
				return c
			}
			ref, c := run(false), run(true)
			checkInvariant(t, c, false)
			sameNodes(t, ref, c)
			if c.Size(late) != ref.Size(late) || c.Size(late) == 1 {
				t.Fatalf("late leader learned size %d, want its group's %d", c.Size(late), ref.Size(late))
			}
		})
	}
}

// TestLeaderRevivedAtMergeRound: a leader that was down when Merge's
// leaders decided, and that a round hook revives at the start of the pull
// round, took no part in the decision and keeps its cluster: its members
// follow it as before, and the run ends as on a network where it never went
// down. In "relayed" the leader collected one candidate before it went down,
// which its members must not take for a decision.
func TestLeaderRevivedAtMergeRound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		relay bool
	}{{"fresh", false}, {"relayed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var late int
			run := func(down bool) *Clustering {
				net := newNet(t, 1000, 17)
				c := seedEvenClusters(t, net, 100)
				c.Activate(1)
				late, _ = net.IndexOf(c.Follow(0))
				if tc.relay {
					c.SetPending(max(1-late, 0), c.Follow(500))
					c.RelayCandidates()
				}
				if down {
					net.Fail(late)
					pull := net.Round() + 1
					net.OnRoundStart(func(round int) {
						if round == pull {
							net.Revive(late)
						}
					})
				}
				c.Merge(func(int) (phonecall.NodeID, bool) { return phonecall.NoNode, false })
				return c
			}
			ref, c := run(false), run(true)
			checkInvariant(t, c, false)
			sameNodes(t, ref, c)
			if got := c.ClusterSizes()[c.Network().ID(late)]; got != 100 {
				t.Fatalf("late leader's cluster has %d nodes, want 100", got)
			}
		})
	}
}

// TestSpammingLeadersAtReportRound: a round hook that corrupts every leader
// with a full-rate Spammer at Resize's report round turns each leader's
// silent call into a junk push, so the leaders' inboxes hold more than their
// members' reports. Every node is clustered, so the arena has no slack
// beyond what the model bounds: at most one message per node per round.
// Nothing may write past the arena, and once the spammers are gone for the
// pull round the clustering holds its invariant.
func TestSpammingLeadersAtReportRound(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		net := newNet(t, 1000, seed)
		c := seedEvenClusters(t, net, 10)
		leaders := leaderIDs(c)
		report := net.Round() + 1
		net.OnRoundStart(func(round int) {
			for _, id := range leaders {
				i, _ := net.IndexOf(id)
				if round == report {
					net.SetBehavior(i, phonecall.Spammer{})
				} else {
					net.SetBehavior(i, nil)
				}
			}
		})
		c.Resize(0, 5)
		checkInvariant(t, c, false)
		if got := c.ClusteredCount(); got != net.N() {
			t.Fatalf("seed %d: %d nodes clustered, want %d", seed, got, net.N())
		}
	}
}

// sameNodes asserts that every node of c has the follow, size and
// activation it has in ref.
func sameNodes(t *testing.T, ref, c *Clustering) {
	t.Helper()
	for i := 0; i < c.Network().N(); i++ {
		if c.Follow(i) != ref.Follow(i) || c.Size(i) != ref.Size(i) || c.IsActive(i) != ref.IsActive(i) {
			t.Fatalf("node %d: follow %d size %d active %v, want %d %d %v",
				i, c.Follow(i), c.Size(i), c.IsActive(i), ref.Follow(i), ref.Size(i), ref.IsActive(i))
		}
	}
}

// TestListsIndependentOfWorkers: the leaders' lists take their spans of the
// arena in whatever order the engine's shards deliver, but what each list
// holds, and so every primitive's outcome, is the same for any worker count.
// n is above the engine's single-shard threshold, so 8 workers really shard.
func TestListsIndependentOfWorkers(t *testing.T) {
	const n = 8192
	var cs []*Clustering
	for _, workers := range []int{1, 8} {
		net, err := phonecall.New(phonecall.Config{N: n, Seed: 18, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if net.Workers() != workers {
			t.Fatalf("network runs %d workers, want %d", net.Workers(), workers)
		}
		cs = append(cs, seedEvenClusters(t, net, 256))
	}
	recruit := func(c *Clustering) {
		c.RandomPush(c.ActiveSet(), c.Recruit, func(j int, m phonecall.Message) {
			if id := m.IDs[0]; c.IsClustered(j) && id != c.Follow(j) && (c.Pending(j) == phonecall.NoNode || id < c.Pending(j)) {
				c.SetPending(j, id)
			}
		})
		c.RelayCandidates()
	}
	merge := func(c *Clustering) {
		net := c.Network()
		c.Merge(func(leader int) (phonecall.NodeID, bool) {
			cands := c.Candidates(leader)
			if len(cands) == 0 {
				return phonecall.NoNode, false
			}
			return cands[net.NodeRNG(leader).Intn(len(cands))], true
		})
	}
	for _, step := range []struct {
		name string
		fn   func(c *Clustering)
	}{
		{"Resize", func(c *Clustering) { c.Resize(2, 64) }},
		{"ResizeActivate", func(c *Clustering) { c.ResizeActivate(2, 16, 0.5) }},
		{"MeasureSizes", (*Clustering).MeasureSizes},
		{"RelayCandidates", recruit},
		{"Merge", merge},
	} {
		for _, c := range cs {
			step.fn(c)
		}
		ref, c := cs[0], cs[1]
		multi := 0
		for i := 0; i < n; i++ {
			if len(ref.Candidates(i)) > 1 {
				multi++
			}
			if c.Follow(i) != ref.Follow(i) || c.Size(i) != ref.Size(i) || c.IsActive(i) != ref.IsActive(i) ||
				!slices.Equal(c.Candidates(i), ref.Candidates(i)) {
				t.Fatalf("after %s, node %d: follow %d size %d active %v candidates %v on 8 workers, %d %d %v %v on 1",
					step.name, i, c.Follow(i), c.Size(i), c.IsActive(i), c.Candidates(i),
					ref.Follow(i), ref.Size(i), ref.IsActive(i), ref.Candidates(i))
			}
		}
		if step.name == "RelayCandidates" && multi < 10 {
			t.Fatalf("%d leaders collected more than one candidate, want their order compared", multi)
		}
	}
	if leaders := cs[0].LeaderCount(); leaders == 0 || leaders >= n/16 {
		t.Fatalf("%d leaders after the merge: the steps did not exercise the lists", leaders)
	}
}

func TestRandomPushAndRelay(t *testing.T) {
	net := newNet(t, 2000, 8)
	c := seedEvenClusters(t, net, 20)
	c.Activate(1)
	received := 0
	c.RandomPush(
		nil,
		func(i int) phonecall.Message {
			return phonecall.Message{Tag: TagRecruit, IDs: []phonecall.NodeID{c.Follow(i)}}
		},
		func(j int, m phonecall.Message) {
			if m.Tag == TagRecruit {
				received++
				c.SetPending(j, m.IDs[0])
			}
		},
	)
	if received < 1000 {
		t.Fatalf("only %d recruit messages received out of 2000 pushes", received)
	}
	c.RelayCandidates()
	withCandidates := 0
	for i := 0; i < net.N(); i++ {
		if c.IsLeader(i) && len(c.Candidates(i)) > 0 {
			withCandidates++
		}
	}
	if withCandidates < 50 {
		t.Fatalf("only %d leaders collected candidates", withCandidates)
	}
	c.Merge(func(int) (phonecall.NodeID, bool) { return phonecall.NoNode, false })
	for i := 0; i < net.N(); i++ {
		if len(c.Candidates(i)) != 0 {
			t.Fatal("candidates outlived the Merge that read them")
		}
	}
}

func TestPullJoinClustersEveryone(t *testing.T) {
	net := newNet(t, 5000, 9)
	c := newClustering(t, net)
	// Cluster 60% of the nodes, leave the rest unclustered.
	for start := 0; start < 3000; start += 30 {
		leader := start
		for i := start; i < start+30; i++ {
			if net.ID(i) > net.ID(leader) {
				leader = i
			}
		}
		for i := start; i < start+30; i++ {
			c.SetFollow(i, net.ID(leader))
		}
	}
	rounds := c.PullJoin(20)
	if c.ClusteredCount() != 5000 {
		t.Fatalf("PullJoin left %d nodes unclustered", 5000-c.ClusteredCount())
	}
	if rounds > 10 {
		t.Fatalf("PullJoin used %d rounds, expected a handful (log log n behaviour)", rounds)
	}
	checkInvariant(t, c, false)
}

func TestShareRumor(t *testing.T) {
	net := newNet(t, 400, 10)
	c := seedEvenClusters(t, net, 400) // one big cluster
	c.SetRumor(3)
	if c.InformedCount() != 1 {
		t.Fatalf("informed = %d, want 1", c.InformedCount())
	}
	c.ShareRumor()
	if c.InformedCount() != 400 {
		t.Fatalf("informed = %d after ShareRumor, want 400", c.InformedCount())
	}
	if !c.HasRumor(0) || !c.HasRumor(399) {
		t.Fatal("rumor flags not set")
	}
}

func TestShareRumorOnlyReachesOwnCluster(t *testing.T) {
	net := newNet(t, 200, 11)
	c := seedEvenClusters(t, net, 100) // two clusters
	c.SetRumor(0)
	c.ShareRumor()
	informed := c.InformedCount()
	if informed != 100 {
		t.Fatalf("informed = %d, want exactly the source's cluster (100)", informed)
	}
}

func TestFailedNodesAreExcludedFromCounts(t *testing.T) {
	net := newNet(t, 100, 12)
	net.Fail(0, 1, 2, 3, 4)
	c := seedEvenClusters(t, net, 10)
	if c.ClusteredCount() != 95 {
		t.Fatalf("clustered = %d, want 95 live nodes", c.ClusteredCount())
	}
	sizes := c.ClusterSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 95 {
		t.Fatalf("cluster sizes sum to %d, want 95", total)
	}
}

// docRoundCosts parses cluster.go and returns, for every exported Clustering
// method whose doc comment states "Costs N round(s)", that N.
func docRoundCosts(t *testing.T) map[string]int {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "cluster.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	words := map[string]int{"one": 1, "two": 2, "three": 3}
	costRE := regexp.MustCompile(`Costs (one|two|three) rounds?\.`)
	costs := make(map[string]int)
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Doc == nil {
			continue
		}
		if m := costRE.FindStringSubmatch(strings.Join(strings.Fields(fn.Doc.Text()), " ")); m != nil {
			costs[fn.Name.Name] = words[m[1]]
		}
	}
	return costs
}

// TestClusterPrimitivesCostConstantRounds is the round-cost lock: every
// exported primitive whose doc comment states a round cost — fused ones
// included — advances Network.Round() by exactly that count, and every such
// primitive is exercised here, so a primitive that changes cost (or a new one
// with a stated cost) fails this named test rather than only golden bytes.
// Compress and PullJoin, whose cost is an argument, are checked against it.
func TestClusterPrimitivesCostConstantRounds(t *testing.T) {
	net := newNet(t, 1000, 13)
	c := seedEvenClusters(t, net, 25)
	steps := []struct {
		name string
		fn   func()
	}{
		{"Activate", func() { c.Activate(0.5) }},
		{"SetActivation", func() { c.SetActivation(func(int) bool { return true }) }},
		{"MeasureSizes", func() { c.MeasureSizes() }},
		{"ReportJoins", func() { c.ReportJoins() }},
		{"Resize", func() { c.Resize(2, 25) }},
		{"ResizeActivate", func() { c.ResizeActivate(2, 10, 0.5) }},
		{"RandomPush", func() { c.RandomPush(nil, c.Recruit, nil) }},
		{"RelayCandidates", func() { c.RelayCandidates() }},
		{"Merge", func() { c.Merge(func(int) (phonecall.NodeID, bool) { return phonecall.NoNode, false }) }},
		{"ShareRumor", func() { c.ShareRumor() }},
	}
	costs := docRoundCosts(t)
	if len(costs) != len(steps) {
		t.Errorf("cluster.go states a round cost for %d primitives, the lock exercises %d: %v", len(costs), len(steps), costs)
	}
	for _, s := range steps {
		want, ok := costs[s.name]
		if !ok {
			t.Errorf("%s: no \"Costs N rounds.\" in its doc comment", s.name)
			continue
		}
		before := net.Round()
		s.fn()
		if got := net.Round() - before; got != want {
			t.Errorf("%s used %d rounds, its doc comment states %d", s.name, got, want)
		}
	}
	for _, rounds := range []int{1, 2} {
		before := net.Round()
		c.Compress(rounds)
		if got := net.Round() - before; got != rounds {
			t.Errorf("Compress(%d) used %d rounds", rounds, got)
		}
	}
	for i := 0; i < net.N(); i += 3 {
		c.SetFollow(i, phonecall.NoNode)
	}
	before := net.Round()
	used := c.PullJoin(20)
	if got := net.Round() - before; got != used || used == 0 {
		t.Errorf("PullJoin reported %d rounds and used %d", used, got)
	}
}
