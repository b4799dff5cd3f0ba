package policy

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/phonecall"
	"repro/internal/rng"
)

// selectorTag separates the policy-selection hash stream from the model's
// other stateless streams (0xc0ffee random targets, 0x70ca1 loss).
const selectorTag = 0x9013c9

// maxGroups caps the number of distinct attribute tuples a table may compile
// to: the weight tables are O(groups²), and a topology is a handful of
// classes, not a per-node namespace.
const maxGroups = 4096

// groupPlan is one initiator group's sampling plan against one admissibility
// view: per target group the slot multiplicity q (0 when the hard
// constraints reject the group), the cumulative slot offset, and the total
// slot count with the initiator's own group fully included.
type groupPlan struct {
	q     []int64
	start []int64
	total int64
}

// compiled is the immutable compilation of (table, policy) that NewSelector
// builds and the selection hot path reads.
type compiled struct {
	groups     []Attrs
	members    [][]int
	groupOf    []int32
	posInGroup []int32
	// plans[0] is the configured-policy view; plans[1] is the partitioned
	// view (the same policy with cross-zone admissibility masked off),
	// toggled by SetPartitioned.
	plans     [2][]groupPlan
	mode      Mode
	hasPolicy bool
}

// Selector implements phonecall.PeerSelector over an attribute table and a
// policy. Selection is a pure integer function of (seed, round, initiator)
// and the compiled tables — bit-identical across worker counts and engines.
// With no policy configured and no partition active it delegates verbatim to
// the uniform contract phonecall.RandomPeer, so installing a topology alone
// does not change any execution.
//
// SetPartitioned is safe to call concurrently with selection (an atomic
// flag), but deterministic runs must only call it between rounds, like
// Fail/Revive/SetLoss.
type Selector struct {
	table *Table
	n     int
	seed  uint64

	state       *compiled
	partitioned atomic.Bool
	// evaluations counts SelectPeer calls, striped by initiator range: the
	// initiators [k<<evalShift, (k+1)<<evalShift) count in stripe k. Engine
	// shards own contiguous initiator ranges, so concurrent selections bump
	// different cache lines instead of one shared counter.
	evaluations [evalStripes]paddedCounter
	evalShift   uint
	violations  atomic.Int64
}

// evalStripes bounds how many initiator ranges the evaluation counter is
// striped over: at least as many as an engine has shards, few enough that
// Stats sums a handful of loads.
const evalStripes = 16

// paddedCounter is a counter alone on its cache line.
type paddedCounter struct {
	atomic.Int64
	_ [56]byte
}

// NewSelector compiles a policy over a table. pol may be nil: the selector
// then passes random contacts through to the uniform contract, while still
// answering zone queries and honoring partitions (with uniform same-zone
// selection). The seed must be the execution seed of the network the
// selector will be installed on.
func NewSelector(table *Table, pol *Policy, seed uint64) (*Selector, error) {
	if table == nil {
		return nil, fmt.Errorf("%w: selector needs a topology table", ErrSpec)
	}
	c, err := compile(table, pol)
	if err != nil {
		return nil, err
	}
	s := &Selector{table: table, n: table.Len(), seed: seed, state: c}
	for (s.n-1)>>s.evalShift >= evalStripes {
		s.evalShift++
	}
	return s, nil
}

// compile builds the immutable selection tables for one (table, policy)
// pair. All floating point happens here; the result is integer-only.
func compile(table *Table, pol *Policy) (*compiled, error) {
	eff := uniformPolicy
	if pol != nil {
		eff = *pol
	}
	if err := eff.Validate(); err != nil {
		return nil, err
	}
	groups, members, groupOf, posInGroup := groupTable(table)
	if len(groups) > maxGroups {
		return nil, fmt.Errorf("%w: topology compiles to %d attribute groups (max %d)", ErrSpec, len(groups), maxGroups)
	}
	c := &compiled{
		groups:     groups,
		members:    members,
		groupOf:    make([]int32, table.Len()),
		posInGroup: make([]int32, table.Len()),
		mode:       eff.Mode,
		hasPolicy:  pol != nil,
	}
	for i := range groupOf {
		c.groupOf[i] = int32(groupOf[i])
		c.posInGroup[i] = int32(posInGroup[i])
	}
	for view := 0; view < 2; view++ {
		plans := make([]groupPlan, len(groups))
		for g, a := range groups {
			p := groupPlan{q: make([]int64, len(groups)), start: make([]int64, len(groups))}
			for h, b := range groups {
				q := eff.slots(a, b)
				if view == 1 && a.Zone != b.Zone {
					q = 0 // partition: only same-zone peers are reachable
				}
				p.start[h] = p.total
				p.q[h] = q
				p.total += q * int64(len(members[h]))
			}
			plans[g] = p
		}
		c.plans[view] = plans
	}
	return c, nil
}

// SelectPeer implements phonecall.PeerSelector: initiator's policy-weighted
// random contact for the round, or (0, false) in enforce mode when no peer
// is admissible (the call is then charged but undelivered, exactly like an
// unresolvable direct target).
//
// The contract (DESIGN.md §13): the admissible peers, grouped by attribute
// tuple in lexicographic (zone, latency, capacity, reputation) order with
// members ascending by index, lay out a virtual slot array in which each
// member of group h owns q(g→h) consecutive slots. One draw
// r = Bounded(Mix(seed, 0x9013c9, round, initiator), W) over the W slots not
// owned by the initiator picks the peer owning slot r (the initiator's own
// block is skipped by shifting). Exact weighted sampling — no rejection
// loop, no floats.
func (s *Selector) SelectPeer(round, initiator int) (int, bool) {
	s.evaluations[initiator>>s.evalShift].Add(1)
	part := s.partitioned.Load()
	c := s.state
	if !c.hasPolicy && !part {
		return phonecall.RandomPeer(s.n, s.seed, round, initiator), true
	}
	g := int(c.groupOf[initiator])
	plan := &c.plans[b2i(part)][g]
	qSelf := plan.q[g]
	w := plan.total - qSelf
	if w <= 0 {
		s.violations.Add(1)
		if c.mode == ModePermissive {
			return phonecall.RandomPeer(s.n, s.seed, round, initiator), true
		}
		return 0, false
	}
	r := int64(rng.Bounded(rng.Mix(s.seed, selectorTag, uint64(round), uint64(initiator)), uint64(w)))
	if qSelf > 0 {
		selfStart := plan.start[g] + int64(c.posInGroup[initiator])*qSelf
		if r >= selfStart {
			r += qSelf
		}
	}
	h := sort.Search(len(plan.start), func(k int) bool { return plan.start[k] > r }) - 1
	off := r - plan.start[h]
	return c.members[h][off/plan.q[h]], true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SetPartitioned toggles the network partition view: while partitioned, only
// same-zone peers are reachable (under the configured policy's weights).
func (s *Selector) SetPartitioned(part bool) { s.partitioned.Store(part) }

// Partitioned reports whether the partition view is active.
func (s *Selector) Partitioned() bool { return s.partitioned.Load() }

// ZoneMembers returns the node indexes in a zone (for zone outage/heal
// events).
func (s *Selector) ZoneMembers(zone int) []int { return s.table.ZoneMembers(zone) }

// Zones returns the number of zones in the topology.
func (s *Selector) Zones() int { return s.table.Zones() }

// Zone returns node i's zone.
func (s *Selector) Zone(i int) int { return s.table.Zone(i) }

// Stats returns the cumulative evaluation and violation counts (violations:
// enforce-mode failed calls plus permissive-mode uniform fallbacks).
func (s *Selector) Stats() (evaluations, violations int64) {
	for k := range s.evaluations {
		evaluations += s.evaluations[k].Load()
	}
	return evaluations, s.violations.Load()
}

// Compile validates the (table, policy) pair for an n-node execution and
// compiles the selector — the nil-combination rules and the size check every
// engine layer shares. Both nil returns (nil, nil): the execution keeps the
// uniform contract. Callers installing the result behind an interface must
// guard the nil (a typed-nil *Selector in a non-nil interface would shadow
// the uniform path).
func Compile(n int, seed uint64, table *Table, pol *Policy) (*Selector, error) {
	if table == nil {
		if pol != nil {
			return nil, fmt.Errorf("%w: a policy needs a topology", ErrSpec)
		}
		return nil, nil
	}
	if table.Len() != n {
		return nil, fmt.Errorf("%w: topology describes %d nodes for an n=%d network", ErrSpec, table.Len(), n)
	}
	return NewSelector(table, pol, seed)
}

// Install compiles the (table, policy) pair against a network and installs
// the selector on it — the one code path the barriered engine layers
// (run.Execute, scenario driver) funnel through; the free-running runtime goes
// through Compile and live.FreeRunConfig.PeerSelector. Both nil is a no-op
// returning (nil, nil): the network keeps the uniform contract.
func Install(net *phonecall.Network, table *Table, pol *Policy) (*Selector, error) {
	sel, err := Compile(net.N(), net.Seed(), table, pol)
	if err != nil || sel == nil {
		return nil, err
	}
	net.SetPeerSelector(sel)
	return sel, nil
}
