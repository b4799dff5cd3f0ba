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
	"math/bits"
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
	size     []int
	prevSize []int

	// missed counts each member's consecutive unanswered pulls to its leader
	// (leaderPull).
	missed []uint8

	// recruit state: candidate cluster IDs received via random pushes,
	// relayed to leaders for merge decisions. Leader j's candidates are
	// cands[candOff[j] : candOff[j]+candLen[j]]: one flat arena, a span per
	// leader with room for counts[j] laid out by RelayCandidates from a count
	// pass, the way Resize lays out its member lists. The index arrays are
	// made on the first relay.
	pending []phonecall.NodeID
	cands   []phonecall.NodeID
	candOff []int32
	candLen []int32

	// Scratch reused by every primitive, so that a primitive allocates
	// nothing per node. idSlot backs one-ID payloads: a node writes only its
	// own slot, and a message aliasing it is read only within its round.
	idSlot  []phonecall.NodeID
	counts  []int32            // per-leader report counts; Resize: cluster size (-1 dissolves)
	lens    []int32            // Resize: per-leader room for reports, then length of the new-leaders list
	spans   []int32            // Resize: where leader j's span of members starts
	members []phonecall.NodeID // Resize: every leader's member IDs, one span per leader
	laidOut phonecall.NodeSet  // Resize: the leaders given a span before the reports
	target  []phonecall.NodeID // Merge: per-leader merge target

	// sets holds the per-node flags as bitmaps, so that a primitive's
	// initiator set and its per-leader loops cost words, not nodes. Each
	// bitmap is written only by its helper (SetFollow, SetActive,
	// setJoined, SetPending, SetRumor). active, joined and rumor are the
	// flags themselves; clustered, leader and pending are derived from
	// follow and pending, which their helpers write along with them.
	sets struct {
		clustered phonecall.NodeSet // follow ≠ NoNode
		leader    phonecall.NodeSet // follow = own ID
		active    phonecall.NodeSet // the node's cached activation bit
		joined    phonecall.NodeSet // joined since it last reported to its leader (Join, ReportJoins)
		pending   phonecall.NodeSet // pending ≠ NoNode
		rumor     phonecall.NodeSet // the node holds the rumor
	}
	// callers is the scratch initiator set of a primitive's round.
	callers phonecall.NodeSet
}

// New returns an empty clustering (every node unclustered) over net.
func New(net *phonecall.Network) *Clustering {
	n := net.N()
	c := &Clustering{
		net:      net,
		follow:   make([]phonecall.NodeID, n),
		size:     make([]int, n),
		prevSize: make([]int, n),
		missed:   make([]uint8, n),
		pending:  make([]phonecall.NodeID, n),
		idSlot:   make([]phonecall.NodeID, n),
		counts:   make([]int32, n),
		callers:  phonecall.NewNodeSet(n),
	}
	for _, s := range []*phonecall.NodeSet{&c.sets.clustered, &c.sets.leader, &c.sets.active, &c.sets.joined, &c.sets.pending, &c.sets.rumor} {
		*s = phonecall.NewNodeSet(n)
	}
	return c
}

// Network returns the underlying phone call network.
func (c *Clustering) Network() *phonecall.Network { return c.net }

// Follow returns node i's follow variable (local).
func (c *Clustering) Follow(i int) phonecall.NodeID { return c.follow[i] }

// SetFollow sets node i's follow variable (local). It is the one writer of
// follow and of the clustered and leader sets, so the primitives, the
// drivers' recruits and the tests all go through it; like every setter
// here, it may run in node i's own callbacks.
func (c *Clustering) SetFollow(i int, id phonecall.NodeID) {
	old := c.follow[i]
	if old == id {
		return
	}
	c.follow[i] = id
	if (old == phonecall.NoNode) != (id == phonecall.NoNode) {
		c.sets.clustered.Put(i, id != phonecall.NoNode)
	}
	if own := c.net.ID(i); (old == own) != (id == own) {
		c.sets.leader.Put(i, id == own)
	}
}

// Join makes node i a member of the cluster with ID id and marks it for the
// next ReportJoins (local; called by the node itself on receiving the
// recruiting message).
func (c *Clustering) Join(i int, id phonecall.NodeID) {
	c.SetFollow(i, id)
	c.setJoined(i, true)
}

// setJoined sets node i's join mark (local).
func (c *Clustering) setJoined(i int, v bool) {
	if c.sets.joined.Has(i) != v {
		c.sets.joined.Put(i, v)
	}
}

// IsClustered reports whether node i belongs to a cluster (local).
func (c *Clustering) IsClustered(i int) bool { return c.follow[i] != phonecall.NoNode }

// IsLeader reports whether node i is a cluster leader (local).
func (c *Clustering) IsLeader(i int) bool { return c.follow[i] == c.net.ID(i) }

// IsActive reports whether node i believes its cluster is activated (local).
func (c *Clustering) IsActive(i int) bool { return c.sets.active.Has(i) }

// SetActive sets node i's cached activation bit (local; used when a node
// joins a cluster it knows to be active, e.g. because that cluster just
// pushed to it).
func (c *Clustering) SetActive(i int, v bool) {
	if c.sets.active.Has(i) != v {
		c.sets.active.Put(i, v)
	}
}

// ActiveSet returns the nodes whose activation bit is set, as the
// participants of a RandomPush (local). The set is the clustering's own and
// changes with it.
func (c *Clustering) ActiveSet() phonecall.NodeSet { return c.sets.active }

// Size returns node i's last learned cluster size (local).
func (c *Clustering) Size(i int) int { return c.size[i] }

// PrevSize returns node i's previously learned cluster size (local).
func (c *Clustering) PrevSize(i int) int { return c.prevSize[i] }

// HasRumor reports whether node i holds the rumor (local).
func (c *Clustering) HasRumor(i int) bool { return c.sets.rumor.Has(i) }

// SetRumor marks node i as holding the rumor (local; used to place the
// initial rumor at the source).
func (c *Clustering) SetRumor(i int) {
	if !c.sets.rumor.Has(i) {
		c.sets.rumor.Put(i, true)
	}
}

// RumorSet returns the nodes holding the rumor (local). The set is the
// clustering's own and changes with it.
func (c *Clustering) RumorSet() phonecall.NodeSet { return c.sets.rumor }

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
func (c *Clustering) InformedCount() int { return c.liveCount(c.sets.rumor, nil) }

// ClusteredCount returns the number of live clustered nodes (local).
func (c *Clustering) ClusteredCount() int { return c.liveCount(c.sets.clustered, nil) }

// LeaderCount returns the number of live cluster leaders (local).
func (c *Clustering) LeaderCount() int { return c.liveCount(c.sets.leader, nil) }

// ActiveLeaderCount returns the number of live leaders of activated
// clusters (local).
func (c *Clustering) ActiveLeaderCount() int { return c.liveCount(c.sets.leader, c.sets.active) }

// liveCount counts the live nodes of a ∩ b (b nil: of a): a popcount while
// every node is live, a walk over the set bits otherwise.
func (c *Clustering) liveCount(a, b phonecall.NodeSet) int {
	all := c.net.LiveCount() == c.net.N()
	count := 0
	for k, w := range a {
		if b != nil {
			w &= b[k]
		}
		if all {
			count += bits.OnesCount64(w)
			continue
		}
		for ; w != 0; w &= w - 1 {
			if !c.net.IsFailed(k<<6 + bits.TrailingZeros64(w)) {
				count++
			}
		}
	}
	return count
}

// eachLive calls f for every live node of s, in ascending order; f may
// change node i's state, s included.
func (c *Clustering) eachLive(s phonecall.NodeSet, f func(i int)) {
	for k, w := range s {
		for ; w != 0; w &= w - 1 {
			if i := k<<6 + bits.TrailingZeros64(w); !c.net.IsFailed(i) {
				f(i)
			}
		}
	}
}

// followers returns, in the callers scratch, the clustered non-leaders,
// intersected with and unless it is nil: the initiators of a round in which
// members call their leader.
func (c *Clustering) followers(and phonecall.NodeSet) phonecall.NodeSet {
	for k := range c.callers {
		w := c.sets.clustered[k] &^ c.sets.leader[k]
		if and != nil {
			w &= and[k]
		}
		c.callers[k] = w
	}
	return c.callers
}

// ClusterSizes returns the size of every cluster keyed by leader ID, counting
// only live nodes and following each node's direct follow pointer (local).
func (c *Clustering) ClusterSizes() map[phonecall.NodeID]int {
	sizes := make(map[phonecall.NodeID]int)
	c.eachLive(c.sets.clustered, func(i int) { sizes[c.follow[i]]++ })
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
			c.SetFollow(i, c.net.ID(i))
			c.SetActive(i, true)
			c.size[i] = 1
			c.prevSize[i] = 1
			leaders++
		} else {
			c.SetFollow(i, phonecall.NoNode)
			c.SetActive(i, false)
		}
	}
	return leaders
}

// sizeReport and rumorPayload are the fixed payloads of the join reports and
// of ClusterShare's relay to the leader.
func sizeReport(int) phonecall.Message   { return phonecall.Message{Tag: TagSizeReport} }
func rumorPayload(int) phonecall.Message { return phonecall.Message{Tag: TagRumor, Rumor: true} }

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
// failures or loss every pull is answered and this rule never fires. Only a
// puller of this round can reach the limit, so the sweep walks the round's
// initiator set.
func (c *Clustering) leaderPull(
	respond func(leader int) phonecall.Message,
	apply func(i int, m phonecall.Message),
) {
	pullers := c.followers(nil)
	c.net.ExecCalls(
		pullers,
		func(i int) phonecall.Call {
			c.missed[i]++ // until the answer arrives
			return phonecall.Call{Kind: phonecall.Pull, Target: phonecall.DirectTarget(c.follow[i])}
		},
		nil,
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
						c.SetFollow(i, m.IDs[0])
					}
					continue
				}
				if apply != nil {
					apply(i, m)
				}
			}
		},
	)
	c.eachLive(pullers, func(i int) {
		if c.missed[i] >= leaveAfterMisses {
			c.missed[i] = 0
			c.SetFollow(i, phonecall.NoNode)
			c.SetActive(i, false)
		}
	})
}

// Activate implements ClusterActivate(p): every cluster is independently
// activated with probability p; followers learn the outcome by pulling a
// coin from their leader. Costs one round.
func (c *Clustering) Activate(p float64) {
	c.eachLive(c.sets.leader, func(i int) { c.SetActive(i, c.net.NodeRNG(i).Bernoulli(p)) })
	c.broadcastActivation()
}

// SetActivation lets every leader decide its cluster's activation and
// broadcasts the decision to the followers. Costs one round.
func (c *Clustering) SetActivation(decide func(leader int) bool) {
	c.eachLive(c.sets.leader, func(i int) { c.SetActive(i, decide(i)) })
	c.broadcastActivation()
}

func (c *Clustering) broadcastActivation() {
	c.leaderPull(
		func(leader int) phonecall.Message {
			v := uint64(0)
			if c.IsActive(leader) {
				v = 1
			}
			return phonecall.Message{Tag: TagActivate, Value: v}
		},
		func(i int, m phonecall.Message) {
			c.SetActive(i, m.Value == 1)
		},
	)
}

// MeasureSizes implements ClusterSize: followers report to their leader, the
// leader counts, and followers pull the count back. Costs two rounds. The
// learned size is available via Size; the previously learned size moves to
// PrevSize.
func (c *Clustering) MeasureSizes() {
	c.countReports(false)
	c.eachLive(c.sets.leader, func(i int) {
		c.prevSize[i] = c.size[i]
		c.size[i] = int(c.counts[i]) + 1 // the leader itself
	})
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
	c.countReports(true)
	c.eachLive(c.sets.leader, func(i int) {
		c.prevSize[i] = c.size[i]
		c.size[i] += int(c.counts[i])
	})
}

// countReports runs one round in which every clustered non-leader (every
// joined one, with onlyJoined) pushes a report to its leader, and leaves the
// reports each leader received in c.counts. A member that reports has told
// its leader about itself, so its join mark clears.
func (c *Clustering) countReports(onlyJoined bool) {
	var and phonecall.NodeSet
	if onlyJoined {
		and = c.sets.joined
	}
	clear(c.counts)
	c.net.ExecCalls(
		c.followers(and),
		func(i int) phonecall.Call {
			c.setJoined(i, false)
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(c.follow[i])}
		},
		sizeReport,
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
	// member that can report to it (lens), and one spare slot, which is room
	// for the group list plus the activated list when target ≥ 2 (or no
	// coins).
	clear(c.counts)
	reporters := c.followers(nil)
	c.eachLive(reporters, func(i int) {
		if j, ok := net.IndexOf(c.follow[i]); ok && !net.IsFailed(j) && c.IsLeader(j) {
			c.counts[j]++
		}
	})
	if c.spans == nil {
		c.spans = make([]int32, n)
		c.lens = make([]int32, n)
		c.laidOut = phonecall.NewNodeSet(n)
	}
	clear(c.laidOut)
	total := int32(0)
	c.eachLive(c.sets.leader, func(j int) {
		c.laidOut.Put(j, true)
		c.spans[j], c.lens[j] = total, c.counts[j]
		total += c.counts[j] + 2
		c.counts[j] = 0
	})
	if int(total) > cap(c.members) {
		c.members = make([]phonecall.NodeID, total+total/4)
	}
	members := c.members[:total]

	net.ExecCalls(
		reporters,
		func(i int) phonecall.Call {
			c.setJoined(i, false)
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(c.follow[i])}
		},
		sizeReport,
		nil,
		func(j int, inbox []phonecall.Message) {
			if !c.laidOut.Has(j) {
				return // not a leader, or one that has no span yet
			}
			lo, room := c.spans[j]+1, c.lens[j]
			for _, m := range inbox {
				if m.Tag == TagSizeReport && c.counts[j] < room {
					members[lo+c.counts[j]] = m.From
					c.counts[j]++
				}
			}
		},
	)

	// A leader that a scenario revived at the start of the report round was
	// not laid out and took no reports: it gets a span of its own past the
	// others, room for itself and its coin, and splits alone.
	tail := total
	for k, w := range c.sets.leader {
		for w &^= c.laidOut[k]; w != 0; w &= w - 1 {
			if j := k<<6 + bits.TrailingZeros64(w); !net.IsFailed(j) {
				c.spans[j] = tail
				tail += 2
			}
		}
	}
	if tail > total {
		if int(tail) > cap(c.members) {
			grown := make([]phonecall.NodeID, tail+tail/4)
			copy(grown, members)
			c.members = grown
		}
		members = c.members[:tail]
	}

	// Every leader splits its sorted member list in place: group g's leader
	// moves to position g, the activated leaders follow the groups.
	c.eachLive(c.sets.leader, func(j int) {
		lo := c.spans[j]
		ids := members[lo : lo+1+c.counts[j]]
		ids[0] = net.ID(j)
		slices.Sort(ids)
		size := len(ids)
		if size < minSize {
			c.counts[j], c.lens[j] = -1, 0
			return
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
	})

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
	// lists were computed above and who did not pull (a member the pull made
	// a group leader has no count).
	c.eachLive(c.sets.leader, func(j int) {
		switch {
		case c.counts[j] < 0:
			c.applyGroup(j, 0, target, nil, coins)
		case c.counts[j] > 0:
			lo := c.spans[j]
			c.applyGroup(j, int(c.counts[j]), target, members[lo:lo+c.lens[j]], coins)
		}
	})
}

// applyGroup applies a TagNewLeaders outcome at node i: size 0 dissolves the
// cluster; otherwise the node follows the first group leader not below its
// own ID, learns that group's size and, with coins, whether the group is
// activated (its leader appears after the group list).
func (c *Clustering) applyGroup(i, size, target int, ids []phonecall.NodeID, coins bool) {
	if size == 0 {
		c.SetFollow(i, phonecall.NoNode)
		c.SetActive(i, false)
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
	c.SetFollow(i, leader)
	per, extra := size/groups, size%groups
	if g < extra {
		per++
	}
	c.size[i], c.prevSize[i] = per, per
	if coins {
		c.SetActive(i, slices.Contains(ids[groups:], leader))
	}
}

// RandomPush implements ClusterPUSH: every clustered node among the
// participants (every clustered node if participants is nil) pushes
// payload(i) to a uniformly random node; receive is invoked at every live
// node that received at least one push. The participants are read before
// the round, so receive may change them. Costs one round.
func (c *Clustering) RandomPush(
	participants phonecall.NodeSet,
	payload func(i int) phonecall.Message,
	receive func(i int, m phonecall.Message),
) {
	for k, w := range c.sets.clustered {
		if participants != nil {
			w &= participants[k]
		}
		c.callers[k] = w
	}
	c.net.ExecCalls(
		c.callers,
		func(int) phonecall.Call {
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.RandomTarget()}
		},
		payload,
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
func (c *Clustering) SetPending(i int, id phonecall.NodeID) {
	if old := c.pending[i]; old != id {
		c.pending[i] = id
		if (old == phonecall.NoNode) != (id == phonecall.NoNode) {
			c.sets.pending.Put(i, id != phonecall.NoNode)
		}
	}
}

// Pending returns node i's currently pending candidate cluster ID (local).
func (c *Clustering) Pending(i int) phonecall.NodeID { return c.pending[i] }

// RelayCandidates implements the "relay received messages to the cluster
// leader" step of ClusterPUSH: every node holding a pending candidate pushes
// it to its leader; leaders collect the candidates, in place of any an
// earlier relay left. Costs one round.
func (c *Clustering) RelayCandidates() {
	c.layOutCandidates()
	// A leader keeps its own candidate locally.
	c.net.ExecCalls(
		c.followers(c.sets.pending),
		func(i int) phonecall.Call {
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(c.follow[i])}
		},
		func(i int) phonecall.Message {
			return phonecall.Message{Tag: TagRelay, IDs: c.oneID(i, c.pending[i])}
		},
		nil,
		func(j int, inbox []phonecall.Message) {
			if !c.IsLeader(j) {
				return
			}
			for _, m := range inbox {
				if m.Tag == TagRelay && len(m.IDs) == 1 {
					c.addCandidate(j, m.IDs[0])
				}
			}
		},
	)
	c.eachLive(c.sets.pending, func(i int) {
		if c.IsLeader(i) {
			c.addCandidate(i, c.pending[i])
		}
		c.SetPending(i, phonecall.NoNode)
	})
}

// layOutCandidates empties the candidate arena and gives every leader room
// (counts) for every candidate this relay can bring it: one per live member
// with a pending candidate whose push resolves to it, and its own.
func (c *Clustering) layOutCandidates() {
	net := c.net
	n := net.N()
	if c.candOff == nil {
		c.candOff = make([]int32, n)
		c.candLen = make([]int32, n)
	}
	clear(c.candLen)
	clear(c.counts)
	c.eachLive(c.sets.pending, func(i int) {
		if !c.IsClustered(i) {
			return
		}
		if c.IsLeader(i) {
			c.counts[i]++
		} else if j, ok := net.IndexOf(c.follow[i]); ok && !net.IsFailed(j) && c.IsLeader(j) {
			c.counts[j]++
		}
	})
	total := int32(0)
	c.eachLive(c.sets.leader, func(j int) {
		c.candOff[j] = total
		total += c.counts[j]
	})
	if int(total) > len(c.cands) {
		c.cands = make([]phonecall.NodeID, total+total/4)
	}
}

// addCandidate appends id to leader j's candidates, within the room its
// span was laid out with: only a relay a behavior redirected to another
// leader can find none, and it is dropped.
func (c *Clustering) addCandidate(j int, id phonecall.NodeID) {
	if c.candLen[j] < c.counts[j] {
		c.cands[c.candOff[j]+c.candLen[j]] = id
		c.candLen[j]++
	}
}

// Candidates returns the candidate cluster IDs relayed to leader i (local).
func (c *Clustering) Candidates(i int) []phonecall.NodeID {
	if c.candLen == nil {
		return nil
	}
	lo := c.candOff[i]
	return c.cands[lo : lo+c.candLen[i] : lo+c.candLen[i]]
}

// ClearCandidates drops all relayed candidates (local).
func (c *Clustering) ClearCandidates() { clear(c.candLen) }

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
	c.eachLive(c.sets.leader, func(i int) {
		if id, ok := decide(i); ok && id != phonecall.NoNode && id != c.net.ID(i) {
			target[i] = id
		} else {
			target[i] = c.net.ID(i)
		}
	})
	c.leaderPull(
		func(leader int) phonecall.Message {
			return phonecall.Message{Tag: TagNewFollow, Value: 1, IDs: target[leader : leader+1 : leader+1]}
		},
		func(i int, m phonecall.Message) {
			if m.Value == 1 && len(m.IDs) == 1 {
				if m.IDs[0] != c.follow[i] {
					c.SetActive(i, false)
				}
				c.SetFollow(i, m.IDs[0])
			}
		},
	)
	// The leaders that merge away are still leaders: they did not pull.
	c.eachLive(c.sets.leader, func(i int) {
		if t := target[i]; t != phonecall.NoNode && t != c.net.ID(i) {
			c.SetFollow(i, t)
			c.SetActive(i, false)
		}
	})
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
					c.SetFollow(i, m.IDs[0])
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
		for k, w := range c.sets.clustered {
			c.callers[k] = ^w
		}
		c.net.ExecCalls(
			c.callers,
			func(int) phonecall.Call {
				return phonecall.Call{Kind: phonecall.Pull, Target: phonecall.RandomTarget()}
			},
			nil,
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
						c.SetFollow(i, m.IDs[0])
						c.SetActive(i, false)
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
	c.net.ExecCalls(
		c.followers(c.sets.rumor),
		func(i int) phonecall.Call {
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(c.follow[i])}
		},
		rumorPayload,
		nil,
		func(j int, inbox []phonecall.Message) {
			for _, m := range inbox {
				if m.Tag == TagRumor && m.Rumor {
					c.SetRumor(j)
				}
			}
		},
	)
	c.leaderPull(
		func(leader int) phonecall.Message {
			if c.HasRumor(leader) {
				return phonecall.Message{Tag: TagRumor, Rumor: true}
			}
			return phonecall.Message{Tag: TagRumor}
		},
		func(i int, m phonecall.Message) {
			if m.Rumor {
				c.SetRumor(i)
			}
		},
	)
}
