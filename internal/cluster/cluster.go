// Package cluster implements the clustering abstraction of Section 3 of
// Haeupler & Malkhi, "Optimal Gossip with Direct Addressing" (PODC 2014).
//
// A clustering partitions the nodes into disjoint clusters, each with a
// leader known to every member, plus a set of unclustered nodes. It is
// represented exactly as in the paper: every node holds a follow variable
// containing its leader's ID (its own ID if it is the leader, NoNode if it is
// unclustered). All coordination happens through the cluster primitives of
// Section 3.2, each of which costs a constant number of synchronous rounds in
// the random phone call model and is address-oblivious.
package cluster

import (
	"slices"

	"repro/internal/phonecall"
)

// Message tags used by the cluster primitives.
const (
	TagRedirect   uint8 = iota + 1 // responder is not a leader; IDs[0] is its follow value
	TagActivate                    // Value is the activation bit
	TagSizeReport                  // follower reports membership to its leader
	TagSizeValue                   // Value is the cluster size
	TagNewFollow                   // IDs[0] is the new follow value
	TagNewLeaders                  // Value is the cluster size (0 dissolves); IDs list the new leaders, then the activated ones
	TagRecruit                     // IDs[0] is the pushing cluster's ID
	TagRelay                       // IDs[0] is a relayed candidate cluster ID
	TagFollowIs                    // IDs[0] is the responder's follow value
	TagRumor                       // message carries the rumor
)

// Clustering is the per-node clustering state plus the coordination
// primitives. All exported methods that exchange information run one or more
// rounds on the underlying network and charge messages accordingly; methods
// documented as "local" inspect simulator state without communication and are
// used only by drivers, tests and metrics.
type Clustering struct {
	net *phonecall.Network

	follow   []phonecall.NodeID
	active   []bool
	size     []int
	prevSize []int
	rumor    []bool

	// joined marks the members that joined their cluster since they last
	// reported to its leader (Join, ReportJoins).
	joined []bool
	// missed counts each member's consecutive unanswered pulls to its leader
	// (leaderPull).
	missed []uint8

	// recruit state: candidate cluster IDs received via random pushes,
	// relayed to leaders for merge decisions.
	pending    []phonecall.NodeID
	candidates [][]phonecall.NodeID

	// Scratch reused by every primitive, so that a primitive allocates
	// nothing per node. idSlot backs one-ID payloads: a node writes only its
	// own slot, and a message aliasing it is read only within its round.
	idSlot  []phonecall.NodeID
	counts  []int32            // per-leader report counts; Resize: cluster size (-1 dissolves)
	lens    []int32            // Resize: per-leader length of the new-leaders list
	spans   []int32            // Resize: leader j's span of members is [spans[j], spans[j+1])
	members []phonecall.NodeID // Resize: every leader's member IDs, one span per leader
	target  []phonecall.NodeID // Merge: per-leader merge target
}

// New returns an empty clustering (every node unclustered) over net.
func New(net *phonecall.Network) *Clustering {
	n := net.N()
	return &Clustering{
		net:        net,
		follow:     make([]phonecall.NodeID, n),
		active:     make([]bool, n),
		size:       make([]int, n),
		prevSize:   make([]int, n),
		rumor:      make([]bool, n),
		joined:     make([]bool, n),
		missed:     make([]uint8, n),
		pending:    make([]phonecall.NodeID, n),
		candidates: make([][]phonecall.NodeID, n),
		idSlot:     make([]phonecall.NodeID, n),
		counts:     make([]int32, n),
	}
}

// Network returns the underlying phone call network.
func (c *Clustering) Network() *phonecall.Network { return c.net }

// Follow returns node i's follow variable (local).
func (c *Clustering) Follow(i int) phonecall.NodeID { return c.follow[i] }

// SetFollow sets node i's follow variable (local; used by drivers to seed the
// source node's own cluster in degenerate cases and by tests).
func (c *Clustering) SetFollow(i int, id phonecall.NodeID) { c.follow[i] = id }

// Join makes node i a member of the cluster with ID id and marks it for the
// next ReportJoins (local; called by the node itself on receiving the
// recruiting message).
func (c *Clustering) Join(i int, id phonecall.NodeID) {
	c.follow[i] = id
	c.joined[i] = true
}

// IsClustered reports whether node i belongs to a cluster (local).
func (c *Clustering) IsClustered(i int) bool { return c.follow[i] != phonecall.NoNode }

// IsLeader reports whether node i is a cluster leader (local).
func (c *Clustering) IsLeader(i int) bool { return c.follow[i] == c.net.ID(i) }

// IsActive reports whether node i believes its cluster is activated (local).
func (c *Clustering) IsActive(i int) bool { return c.active[i] }

// SetActive sets node i's cached activation bit (local; used when a node
// joins a cluster it knows to be active, e.g. because that cluster just
// pushed to it).
func (c *Clustering) SetActive(i int, v bool) { c.active[i] = v }

// Size returns node i's last learned cluster size (local).
func (c *Clustering) Size(i int) int { return c.size[i] }

// PrevSize returns node i's previously learned cluster size (local).
func (c *Clustering) PrevSize(i int) int { return c.prevSize[i] }

// HasRumor reports whether node i holds the rumor (local).
func (c *Clustering) HasRumor(i int) bool { return c.rumor[i] }

// SetRumor marks node i as holding the rumor (local; used to place the
// initial rumor at the source).
func (c *Clustering) SetRumor(i int) { c.rumor[i] = true }

// Recruit returns node i's recruiting message: its cluster ID under
// TagRecruit. The ID travels in node i's scratch slot, so building the
// message allocates nothing (local).
func (c *Clustering) Recruit(i int) phonecall.Message {
	return phonecall.Message{Tag: TagRecruit, IDs: c.oneID(i, c.follow[i])}
}

// oneID stores id in node i's scratch slot and returns it as a one-ID list.
func (c *Clustering) oneID(i int, id phonecall.NodeID) []phonecall.NodeID {
	c.idSlot[i] = id
	return c.idSlot[i : i+1 : i+1]
}

// InformedCount returns the number of live nodes holding the rumor (local).
func (c *Clustering) InformedCount() int {
	count := 0
	for i, r := range c.rumor {
		if r && !c.net.IsFailed(i) {
			count++
		}
	}
	return count
}

// ClusteredCount returns the number of live clustered nodes (local).
func (c *Clustering) ClusteredCount() int {
	count := 0
	for i := range c.follow {
		if c.follow[i] != phonecall.NoNode && !c.net.IsFailed(i) {
			count++
		}
	}
	return count
}

// LeaderCount returns the number of live cluster leaders (local).
func (c *Clustering) LeaderCount() int {
	count := 0
	for i := range c.follow {
		if c.IsLeader(i) && !c.net.IsFailed(i) {
			count++
		}
	}
	return count
}

// ClusterSizes returns the size of every cluster keyed by leader ID, counting
// only live nodes and following each node's direct follow pointer (local).
func (c *Clustering) ClusterSizes() map[phonecall.NodeID]int {
	sizes := make(map[phonecall.NodeID]int)
	for i := range c.follow {
		if c.net.IsFailed(i) || c.follow[i] == phonecall.NoNode {
			continue
		}
		sizes[c.follow[i]]++
	}
	return sizes
}

// LargestClusterFraction returns the fraction of live nodes contained in the
// largest cluster (local).
func (c *Clustering) LargestClusterFraction() float64 {
	live := c.net.LiveCount()
	if live == 0 {
		return 0
	}
	largest := 0
	for _, s := range c.ClusterSizes() {
		if s > largest {
			largest = s
		}
	}
	return float64(largest) / float64(live)
}

// SeedSingletons makes every live node a singleton cluster leader
// independently with probability p (line 7 of Algorithm 1, line 8 of
// Algorithm 2). This is a purely local coin flip and costs no rounds.
func (c *Clustering) SeedSingletons(p float64) int {
	leaders := 0
	for i := 0; i < c.net.N(); i++ {
		if c.net.IsFailed(i) {
			continue
		}
		if c.net.NodeRNG(i).Bernoulli(p) {
			c.follow[i] = c.net.ID(i)
			c.active[i] = true
			c.size[i] = 1
			c.prevSize[i] = 1
			leaders++
		} else {
			c.follow[i] = phonecall.NoNode
			c.active[i] = false
		}
	}
	return leaders
}

// leaveAfterMisses is how many consecutive unanswered pulls make a member
// give its leader up as crashed. A crashed leader never answers again, while
// a call lost in transit (SetLoss) is independent per round: leaving on the
// first miss would turn every lost pull into a member stranded outside its
// cluster, and at 5 % loss leaves more nodes uninformed than never leaving.
const leaveAfterMisses = 2

// leaderPull runs one round in which every clustered non-leader node pulls
// from its leader. Leaders respond with respond(leader); a contacted node that
// is not (or no longer) a leader responds with a redirect carrying its own
// follow value, which the puller adopts (lazy path compression). apply is
// invoked for every puller that received a non-redirect response.
//
// A member whose pulls went unanswered leaveAfterMisses times in a row has
// lost its leader — a crashed node never answers — and becomes unclustered,
// so that a later recruit or PullJoin places it in a live cluster. Without
// failures or loss every pull is answered and this rule never fires.
func (c *Clustering) leaderPull(
	respond func(leader int) phonecall.Message,
	apply func(i int, m phonecall.Message),
) {
	c.net.ExecRound(
		func(i int) phonecall.Intent {
			if !c.IsClustered(i) || c.IsLeader(i) {
				return phonecall.Silent()
			}
			c.missed[i]++ // until the answer arrives
			return phonecall.PullIntent(phonecall.DirectTarget(c.follow[i]))
		},
		func(j int) (phonecall.Message, bool) {
			if c.IsLeader(j) {
				return respond(j), true
			}
			return phonecall.Message{Tag: TagRedirect, IDs: c.oneID(j, c.follow[j])}, true
		},
		func(i int, inbox []phonecall.Message) {
			c.missed[i] = 0
			for _, m := range inbox {
				if m.Tag == TagRedirect {
					if len(m.IDs) == 1 && m.IDs[0] != phonecall.NoNode {
						c.follow[i] = m.IDs[0]
					}
					continue
				}
				if apply != nil {
					apply(i, m)
				}
			}
		},
	)
	for i, missed := range c.missed {
		if missed >= leaveAfterMisses {
			c.missed[i] = 0
			c.follow[i] = phonecall.NoNode
			c.active[i] = false
		}
	}
}

// Activate implements ClusterActivate(p): every cluster is independently
// activated with probability p; followers learn the outcome by pulling a
// coin from their leader. Costs one round.
func (c *Clustering) Activate(p float64) {
	for i := 0; i < c.net.N(); i++ {
		if c.IsLeader(i) && !c.net.IsFailed(i) {
			c.active[i] = c.net.NodeRNG(i).Bernoulli(p)
		}
	}
	c.broadcastActivation()
}

// SetActivation lets every leader decide its cluster's activation and
// broadcasts the decision to the followers. Costs one round.
func (c *Clustering) SetActivation(decide func(leader int) bool) {
	for i := 0; i < c.net.N(); i++ {
		if c.IsLeader(i) && !c.net.IsFailed(i) {
			c.active[i] = decide(i)
		}
	}
	c.broadcastActivation()
}

func (c *Clustering) broadcastActivation() {
	c.leaderPull(
		func(leader int) phonecall.Message {
			v := uint64(0)
			if c.active[leader] {
				v = 1
			}
			return phonecall.Message{Tag: TagActivate, Value: v}
		},
		func(i int, m phonecall.Message) {
			c.active[i] = m.Value == 1
		},
	)
}

// MeasureSizes implements ClusterSize: followers report to their leader, the
// leader counts, and followers pull the count back. Costs two rounds. The
// learned size is available via Size; the previously learned size moves to
// PrevSize.
func (c *Clustering) MeasureSizes() {
	c.countReports(nil)
	for i := 0; i < c.net.N(); i++ {
		if c.IsLeader(i) && !c.net.IsFailed(i) {
			c.prevSize[i] = c.size[i]
			c.size[i] = int(c.counts[i]) + 1 // the leader itself
		}
	}
	c.leaderPull(
		func(leader int) phonecall.Message {
			return phonecall.Message{Tag: TagSizeValue, Value: uint64(c.size[leader])}
		},
		func(i int, m phonecall.Message) {
			c.prevSize[i] = c.size[i]
			c.size[i] = int(m.Value)
		},
	)
}

// ReportJoins is the join report: every member that joined its cluster since
// its last report (Join) pushes one report to its leader, and each leader adds
// the arrivals to its running size; the previous size moves to PrevSize. It
// gives a leader what MeasureSizes would, as long as the leader's size was
// known before the joins, in one round and with one message per new member.
// Costs one round.
func (c *Clustering) ReportJoins() {
	c.countReports(func(i int) bool { return c.joined[i] })
	for i := 0; i < c.net.N(); i++ {
		if c.IsLeader(i) && !c.net.IsFailed(i) {
			c.prevSize[i] = c.size[i]
			c.size[i] += int(c.counts[i])
		}
	}
}

// countReports runs one round in which every clustered non-leader for which
// only returns true (every one if only is nil) pushes a report to its leader,
// and leaves the reports each leader received in c.counts. A member that
// reports has told its leader about itself, so its join mark clears.
func (c *Clustering) countReports(only func(i int) bool) {
	clear(c.counts)
	c.net.ExecRound(
		func(i int) phonecall.Intent {
			if !c.IsClustered(i) || c.IsLeader(i) || (only != nil && !only(i)) {
				return phonecall.Silent()
			}
			c.joined[i] = false
			return phonecall.PushIntent(phonecall.DirectTarget(c.follow[i]), phonecall.Message{Tag: TagSizeReport})
		},
		nil,
		func(j int, inbox []phonecall.Message) {
			if !c.IsLeader(j) {
				return
			}
			for _, m := range inbox {
				if m.Tag == TagSizeReport {
					c.counts[j]++
				}
			}
		},
	)
}

// Resize implements ClusterDissolve(minSize) followed by ClusterResize(target)
// in one exchange: members report to their leader, the leader dissolves its
// cluster if it has fewer than minSize members (minSize ≤ 1 never dissolves)
// and otherwise splits it into ⌊s'/target⌋ groups of (almost) equal size, the
// largest ID of each group becoming its leader (a cluster that does not split
// keeps its leader); members pull the outcome.
// Costs two rounds. After a resize every cluster has size at most
// 2·target−1, and every node learns its group's size. Activation is kept.
func (c *Clustering) Resize(minSize, target int) {
	c.regroup(minSize, max(target, 1), -1)
}

// ResizeActivate is Resize followed by ClusterActivate(p) in the same
// exchange: the old leader flips every new group's activation coin and sends
// the activated group leaders along with the groups. target is at least 2.
// Costs two rounds.
func (c *Clustering) ResizeActivate(minSize, target int, p float64) {
	c.regroup(minSize, max(target, 2), p)
}

// regroup runs Resize, flipping each new group's activation coin with
// probability p when p ≥ 0.
//
// A leader's TagNewLeaders response carries its cluster size s' in Value (0
// dissolves the cluster) and lists the group leaders in ascending order,
// followed by the activated ones. Both sides derive the group count as
// max(1, ⌊s'/target⌋), so a member finds its group — the first leader not
// below its own ID — its group's size and its activation bit from the message
// alone.
func (c *Clustering) regroup(minSize, target int, p float64) {
	net := c.net
	n := net.N()
	coins := p >= 0

	// Lay out one span of c.members per leader: its own ID, one slot per
	// member that can report to it, and one spare slot, which is room for the
	// group list plus the activated list when target ≥ 2 (or no coins).
	clear(c.counts)
	for i := 0; i < n; i++ {
		if net.IsFailed(i) || !c.IsClustered(i) || c.IsLeader(i) {
			continue
		}
		if j, ok := net.IndexOf(c.follow[i]); ok && !net.IsFailed(j) && c.IsLeader(j) {
			c.counts[j]++
		}
	}
	if c.spans == nil {
		c.spans = make([]int32, n+1)
		c.lens = make([]int32, n)
	}
	total := int32(0)
	for j := 0; j < n; j++ {
		c.spans[j] = total
		if c.IsLeader(j) && !net.IsFailed(j) {
			total += c.counts[j] + 2
		}
		c.counts[j] = 0
	}
	c.spans[n] = total
	if int(total) > cap(c.members) {
		c.members = make([]phonecall.NodeID, total+total/4)
	}
	members := c.members[:total]

	net.ExecRound(
		func(i int) phonecall.Intent {
			if !c.IsClustered(i) || c.IsLeader(i) {
				return phonecall.Silent()
			}
			c.joined[i] = false
			return phonecall.PushIntent(phonecall.DirectTarget(c.follow[i]), phonecall.Message{Tag: TagSizeReport})
		},
		nil,
		func(j int, inbox []phonecall.Message) {
			if !c.IsLeader(j) {
				return
			}
			lo, room := c.spans[j]+1, c.spans[j+1]-c.spans[j]-2
			for _, m := range inbox {
				if m.Tag == TagSizeReport && c.counts[j] < room {
					members[lo+c.counts[j]] = m.From
					c.counts[j]++
				}
			}
		},
	)

	// Every leader splits its sorted member list in place: group g's leader
	// moves to position g, the activated leaders follow the groups.
	for j := 0; j < n; j++ {
		if !c.IsLeader(j) || net.IsFailed(j) {
			continue
		}
		lo := c.spans[j]
		ids := members[lo : lo+1+c.counts[j]]
		ids[0] = net.ID(j)
		slices.Sort(ids)
		size := len(ids)
		if size < minSize {
			c.counts[j], c.lens[j] = -1, 0
			continue
		}
		groups := max(1, size/target)
		per, extra := size/groups, size%groups
		end := 0
		for g := 0; g < groups; g++ {
			end += per
			if g < extra {
				end++
			}
			ids[g] = ids[end-1]
		}
		if groups == 1 {
			ids[0] = net.ID(j) // a cluster that does not split keeps its leader
		}
		list := int32(groups)
		if coins {
			rng := net.NodeRNG(j)
			for g := 0; g < groups; g++ {
				if rng.Bernoulli(p) {
					members[lo+list] = ids[g]
					list++
				}
			}
		}
		c.counts[j], c.lens[j] = int32(size), list
	}

	c.leaderPull(
		func(leader int) phonecall.Message {
			if c.counts[leader] < 0 {
				return phonecall.Message{Tag: TagNewLeaders}
			}
			lo := c.spans[leader]
			return phonecall.Message{
				Tag:   TagNewLeaders,
				Value: uint64(c.counts[leader]),
				IDs:   members[lo : lo+c.lens[leader] : lo+c.lens[leader]],
			}
		},
		func(i int, m phonecall.Message) {
			c.applyGroup(i, int(m.Value), target, m.IDs, coins)
		},
	)
	// The old leaders apply their own outcome; they are the leaders whose
	// lists were computed above and who did not pull.
	for j := 0; j < n; j++ {
		if net.IsFailed(j) || c.counts[j] == 0 || !c.IsLeader(j) {
			continue
		}
		if c.counts[j] < 0 {
			c.applyGroup(j, 0, target, nil, coins)
			continue
		}
		lo := c.spans[j]
		c.applyGroup(j, int(c.counts[j]), target, members[lo:lo+c.lens[j]], coins)
	}
}

// applyGroup applies a TagNewLeaders outcome at node i: size 0 dissolves the
// cluster; otherwise the node follows the first group leader not below its
// own ID, learns that group's size and, with coins, whether the group is
// activated (its leader appears after the group list).
func (c *Clustering) applyGroup(i, size, target int, ids []phonecall.NodeID, coins bool) {
	if size == 0 {
		c.follow[i] = phonecall.NoNode
		c.active[i] = false
		return
	}
	groups := min(max(1, size/target), len(ids))
	if groups == 0 {
		return
	}
	own := c.net.ID(i)
	g, _ := slices.BinarySearch(ids[:groups], own)
	g = min(g, groups-1)
	leader := ids[g]
	c.follow[i] = leader
	per, extra := size/groups, size%groups
	if g < extra {
		per++
	}
	c.size[i], c.prevSize[i] = per, per
	if coins {
		c.active[i] = slices.Contains(ids[groups:], leader)
	}
}

// RandomPush implements ClusterPUSH: every clustered node for which
// participate returns true pushes payload(i) to a uniformly random node;
// receive is invoked at every live node that received at least one push.
// Costs one round.
func (c *Clustering) RandomPush(
	participate func(i int) bool,
	payload func(i int) phonecall.Message,
	receive func(i int, m phonecall.Message),
) {
	c.net.ExecRound(
		func(i int) phonecall.Intent {
			if !c.IsClustered(i) || (participate != nil && !participate(i)) {
				return phonecall.Silent()
			}
			return phonecall.PushIntent(phonecall.RandomTarget(), payload(i))
		},
		nil,
		func(j int, inbox []phonecall.Message) {
			if receive == nil {
				return
			}
			for _, m := range inbox {
				receive(j, m)
			}
		},
	)
}

// SetPending records a candidate cluster ID at node i, to be relayed to the
// node's leader by RelayCandidates (local). Callers decide the tie-breaking
// policy (for example "smallest received" for Cluster1 or "first received"
// for Cluster2) before calling SetPending.
func (c *Clustering) SetPending(i int, id phonecall.NodeID) { c.pending[i] = id }

// Pending returns node i's currently pending candidate cluster ID (local).
func (c *Clustering) Pending(i int) phonecall.NodeID { return c.pending[i] }

// RelayCandidates implements the "relay received messages to the cluster
// leader" step of ClusterPUSH: every node holding a pending candidate pushes
// it to its leader; leaders accumulate the candidates. Costs one round.
func (c *Clustering) RelayCandidates() {
	c.net.ExecRound(
		func(i int) phonecall.Intent {
			if c.pending[i] == phonecall.NoNode || !c.IsClustered(i) {
				return phonecall.Silent()
			}
			if c.IsLeader(i) {
				return phonecall.Silent() // the leader keeps its own candidate locally
			}
			return phonecall.PushIntent(
				phonecall.DirectTarget(c.follow[i]),
				phonecall.Message{Tag: TagRelay, IDs: c.oneID(i, c.pending[i])},
			)
		},
		nil,
		func(j int, inbox []phonecall.Message) {
			if !c.IsLeader(j) {
				return
			}
			for _, m := range inbox {
				if m.Tag == TagRelay && len(m.IDs) == 1 {
					c.candidates[j] = append(c.candidates[j], m.IDs[0])
				}
			}
		},
	)
	for i := 0; i < c.net.N(); i++ {
		if c.net.IsFailed(i) {
			continue
		}
		if c.IsLeader(i) && c.pending[i] != phonecall.NoNode {
			c.candidates[i] = append(c.candidates[i], c.pending[i])
		}
		c.pending[i] = phonecall.NoNode
	}
}

// Candidates returns the candidate cluster IDs relayed to leader i (local).
func (c *Clustering) Candidates(i int) []phonecall.NodeID { return c.candidates[i] }

// ClearCandidates drops all relayed candidates (local).
func (c *Clustering) ClearCandidates() {
	for i := range c.candidates {
		c.candidates[i] = c.candidates[i][:0]
	}
}

// Merge implements ClusterMerge: every leader for which decide returns a new
// leader ID merges its cluster into that cluster; followers learn the new
// leader by pulling from their current leader. Costs one round. Members of a
// merged cluster are deactivated; activation is re-established by the next
// Activate or SetActivation call.
func (c *Clustering) Merge(decide func(leader int) (phonecall.NodeID, bool)) {
	if c.target == nil {
		c.target = make([]phonecall.NodeID, c.net.N())
	}
	target := c.target
	clear(target)
	for i := 0; i < c.net.N(); i++ {
		if !c.IsLeader(i) || c.net.IsFailed(i) {
			continue
		}
		if id, ok := decide(i); ok && id != phonecall.NoNode && id != c.net.ID(i) {
			target[i] = id
		} else {
			target[i] = c.net.ID(i)
		}
	}
	c.leaderPull(
		func(leader int) phonecall.Message {
			return phonecall.Message{Tag: TagNewFollow, Value: 1, IDs: target[leader : leader+1 : leader+1]}
		},
		func(i int, m phonecall.Message) {
			if m.Value == 1 && len(m.IDs) == 1 {
				if m.IDs[0] != c.follow[i] {
					c.active[i] = false
				}
				c.follow[i] = m.IDs[0]
			}
		},
	)
	for i := 0; i < c.net.N(); i++ {
		if c.net.IsFailed(i) || target[i] == phonecall.NoNode {
			continue
		}
		if target[i] != c.net.ID(i) && c.follow[i] == c.net.ID(i) {
			c.follow[i] = target[i]
			c.active[i] = false
		}
	}
}

// Compress runs the given number of pointer-jumping rounds: every clustered
// non-leader pulls its leader's follow value and adopts it. After merges the
// follow graph can have depth two; one or two compress rounds restore the
// depth-one invariant.
func (c *Clustering) Compress(rounds int) {
	for r := 0; r < rounds; r++ {
		c.leaderPull(
			func(leader int) phonecall.Message {
				return phonecall.Message{Tag: TagFollowIs, IDs: c.oneID(leader, c.follow[leader])}
			},
			func(i int, m phonecall.Message) {
				if len(m.IDs) == 1 && m.IDs[0] != phonecall.NoNode {
					c.follow[i] = m.IDs[0]
				}
			},
		)
	}
}

// PullJoin implements UnclusteredNodesPull: for up to maxRounds rounds every
// unclustered node pulls from a uniformly random node and joins the
// responder's cluster if the responder is clustered. It stops early when no
// unclustered live node remains and returns the number of rounds used.
func (c *Clustering) PullJoin(maxRounds int) int {
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		if c.ClusteredCount() == c.net.LiveCount() {
			break
		}
		c.net.ExecRound(
			func(i int) phonecall.Intent {
				if c.IsClustered(i) {
					return phonecall.Silent()
				}
				return phonecall.PullIntent(phonecall.RandomTarget())
			},
			func(j int) (phonecall.Message, bool) {
				if !c.IsClustered(j) {
					return phonecall.Message{}, false
				}
				return phonecall.Message{Tag: TagFollowIs, IDs: c.oneID(j, c.follow[j])}, true
			},
			func(i int, inbox []phonecall.Message) {
				if c.IsClustered(i) {
					return
				}
				for _, m := range inbox {
					if m.Tag == TagFollowIs && len(m.IDs) == 1 && m.IDs[0] != phonecall.NoNode {
						c.follow[i] = m.IDs[0]
						c.active[i] = false
						return
					}
				}
			},
		)
	}
	return rounds
}

// ShareRumor implements ClusterShare(message) for the broadcast task: nodes
// holding the rumor relay it to their leader, then every cluster member pulls
// it from the leader. Costs two rounds.
func (c *Clustering) ShareRumor() {
	c.net.ExecRound(
		func(i int) phonecall.Intent {
			if !c.rumor[i] || !c.IsClustered(i) || c.IsLeader(i) {
				return phonecall.Silent()
			}
			return phonecall.PushIntent(phonecall.DirectTarget(c.follow[i]), phonecall.Message{Tag: TagRumor, Rumor: true})
		},
		nil,
		func(j int, inbox []phonecall.Message) {
			for _, m := range inbox {
				if m.Tag == TagRumor && m.Rumor {
					c.rumor[j] = true
				}
			}
		},
	)
	c.leaderPull(
		func(leader int) phonecall.Message {
			if c.rumor[leader] {
				return phonecall.Message{Tag: TagRumor, Rumor: true}
			}
			return phonecall.Message{Tag: TagRumor}
		},
		func(i int, m phonecall.Message) {
			if m.Rumor {
				c.rumor[i] = true
			}
		},
	)
}
