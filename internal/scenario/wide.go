package scenario

import (
	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/trace"
)

// The set ledger: the same steppable push/pull/push-pull protocols over the
// scalable rumor set (internal/rumorset) instead of the uint64 holdings
// bitmask. A message carries the sorted rumor IDs the sender holds in its IDs
// field and is charged the digest bytes plus one payload per carried rumor;
// converged rumors are retired between rounds (GC), so the in-flight window —
// not the total stream length — bounds per-node state and message size.
// Workloads that fit the bitmask (≤64 dense IDs, no explicit window) never
// come here: at that size the mask is 1.3–3× faster (BENCH_TRAJECTORY.md,
// "mask stays at ≤ 64: measured").

// wideProtocol is the set ledger: one steppable protocol over a network and
// a rumor set. The per-node half is phonecall.SetView over each round's
// digest.
type wideProtocol struct {
	algo    Algorithm
	net     *phonecall.Network
	set     *rumorset.Set
	digests []wideDigest
	// carries: the algorithm's calls carry holdings (the decision table's
	// answer for a node with some rumors but not all), so a calling node
	// builds its digest anyway.
	carries bool
	// active is the in-flight rumor count of the round about to execute, kept
	// by the two coordinator calls that change it: Inject and retire.
	active int
	// opened: some rumor has been injected (the window may have drained since).
	opened bool
	scan   []rumorset.ID // the coordinator's scratch
}

// wideDigest is one node's holdings digest for one round: the sorted rumor IDs
// in the message's own ID type (the rumor-set kernels fill and read that
// buffer directly) and their summary's encoded size. A node builds it at most
// once per round. The engine runs every intent and every response of a round
// before the first delivery, and only deliveries change holdings, so the
// digest a node's intent built is still exact when the same node answers a
// pull later in the round; both messages alias ids, which nothing writes again
// before the next round's intent pass.
type wideDigest struct {
	ids          []phonecall.NodeID
	summaryBytes int
	round        int // engine round the digest was built in (0: never)
}

func newWideProtocol(algo Algorithm, net *phonecall.Network, set *rumorset.Set) *wideProtocol {
	_, carries := algo.Call(false, false)
	return &wideProtocol{
		carries: carries,
		algo:    algo,
		net:     net,
		set:     set,
		digests: make([]wideDigest, set.Nodes()),
	}
}

// digest returns node i's digest for the current round, building it on the
// round's first use, and the view over it. A node that did not initiate with
// its holdings (pull, or a round it sat out) builds it here when it is first
// pulled from.
func (p *wideProtocol) digest(i int) (*wideDigest, phonecall.SetView) {
	d := &p.digests[i]
	if round := p.net.Round(); d.round != round {
		d.ids, d.summaryBytes = rumorset.AppendDigest(p.set, d.ids[:0], i)
		d.round = round
	}
	return d, phonecall.SetView{Held: len(d.ids), Active: p.active, SummaryBytes: d.summaryBytes}
}

// intent implements the per-node initiation from the shared decision table,
// with the bitmask protocol's predicates read off the ledger: empty is "holds
// no in-flight rumor", complete is "holds every in-flight rumor". A protocol
// that carries holdings takes the view from the digest it needs anyway; one
// that never does (pull) only counts the row's bits.
func (p *wideProtocol) intent(i int) phonecall.Intent {
	if !p.carries {
		v := phonecall.SetView{Held: p.set.HeldCount(i), Active: p.active}
		it, _ := p.algo.Call(v.Empty(), v.Complete())
		return it
	}
	d, v := p.digest(i)
	it, withHoldings := p.algo.Call(v.Empty(), v.Complete())
	if withHoldings {
		it.Payload = v.Message(p.net, d.ids)
	}
	return it
}

// response answers pulls with the responder's holdings digest.
func (p *wideProtocol) response(j int) (phonecall.Message, bool) {
	d, v := p.digest(j)
	if !p.algo.Answers(v.Empty()) {
		return phonecall.Message{}, false
	}
	return v.Message(p.net, d.ids), true
}

// deliver merges every received digest into the receiver's ledger row,
// straight from the messages. IDs that expired while the message was in
// flight fail the ledger lookup and are dropped (the slot-reuse ABA guard),
// and so does a carried value outside the rumor ID space.
func (p *wideProtocol) deliver(i int, inbox []phonecall.Message) {
	for _, m := range inbox {
		if m.Tag == phonecall.TagHoldings {
			rumorset.MergeDigest(p.set, i, m.IDs)
		}
	}
}

// Inject, Fail and Revive keep the rumor set and the network in step, the way
// the tracker's own methods do for the mask ledger.

func (p *wideProtocol) Inject(node int, r phonecall.RumorID) error {
	if err := p.set.Inject(node, rumorset.ID(r)); err != nil {
		return err
	}
	p.active, p.opened = p.set.Active(), true
	return nil
}

func (p *wideProtocol) Fail(nodes ...int) {
	p.set.Fail(nodes...)
	p.net.Fail(nodes...)
}

func (p *wideProtocol) Revive(nodes ...int) {
	p.set.Revive(nodes...)
	p.net.Revive(nodes...)
}

func (p *wideProtocol) LostInjects() int64 { return p.set.Snapshot().Lost }

func (p *wideProtocol) informed(dst []trace.RumorCount) []trace.RumorCount {
	p.scan = p.set.ActiveIDs(p.scan[:0])
	for _, id := range p.scan {
		dst = append(dst, trace.RumorCount{Rumor: phonecall.RumorID(id), LiveInformed: p.set.LiveInformed(id)})
	}
	return dst
}

// retire is the between-rounds GC: a converged rumor's slot is freed for a
// later injection.
func (p *wideProtocol) retire(done []trace.RumorCount) bool {
	p.scan = p.scan[:0]
	for _, rc := range done {
		p.scan = append(p.scan, rumorset.ID(rc.Rumor))
	}
	p.set.Retire(p.scan...)
	p.active = p.set.Active()
	return true
}

// WorstSpread implements phonecall.Holdings. A drained window means every
// rumor injected so far reached the whole live population.
func (p *wideProtocol) WorstSpread() int {
	if !p.opened {
		return 0
	}
	return worstSpread(p.informed(nil), p.net.LiveCount())
}

// HoldsAll implements phonecall.Holdings.
func (p *wideProtocol) HoldsAll(node int) bool {
	return p.opened && p.set.HeldCount(node) == p.active
}
