package scenario

import (
	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/trace"
)

// The set ledger: the same steppable push/pull/push-pull protocols over the
// scalable rumor set (internal/rumorset) instead of the uint64 holdings
// bitmask. A holdings message is charged what the paper charges it — the
// sorted-ID summary's bytes plus one payload per carried rumor — and carries
// nothing: sender and receiver share one rumor set and, for the length of a
// round, one slot table, so the receiver ORs the sender's per-round row
// snapshot into its own row word by word instead of probing the table once
// per carried ID. The snapshot is in slot space and a slot is reused once its
// rumor retires, so a snapshot is only ever read in the round that took it
// (the digest's round stamp): the table changes between rounds and never
// inside one. Converged rumors are retired between rounds (GC), so the
// in-flight window — not the total stream length — bounds per-node state and
// message size. Workloads that fit the bitmask (≤64 dense IDs, no explicit
// window) never come here: at that size the mask is still up to 1.6× faster
// (BENCH_TRAJECTORY.md, "mask vs set, again").

// wideProtocol is the set ledger: one steppable protocol over a network and
// a rumor set. The per-node half is phonecall.SetView over each round's
// digest.
type wideProtocol struct {
	algo Algorithm
	onNet
	set *rumorset.Set
	// view is the set's read lock, taken by the coordinator in beginRound and
	// given back in endRound: the engine's shards run the rumor-set kernels
	// under it, so no node and no message takes a lock of its own.
	view    rumorset.View
	round   int // rounds begun; stamps the digests built in the current one
	digests []wideDigest
	// snaps is the digests' arena, set.Words() words per node: node i's row
	// snapshot is written by i's shard in the call or the response pass and
	// read by its callees' shards in the delivery pass.
	snaps []uint64
	// carries: the algorithm's calls carry holdings (the decision table's
	// answer for a node with some rumors but not all), so a calling node
	// builds its digest anyway.
	carries bool
	// active is the in-flight rumor count of the round about to execute, kept
	// by the two coordinator calls that change it: Inject and retire.
	active int
	// opened: some rumor has been injected (the window may have drained since).
	opened bool
	isLive func(node int) bool // the network's liveness, for the convergence scan
	scan   []rumorset.ID       // the coordinator's scratch
	counts []int               // the coordinator's scratch, parallel to scan
	spread []trace.RumorCount  // WorstSpread's scratch
}

// wideDigest is one node's holdings digest for one round: what its row
// snapshot in the arena holds and the encoded size of the summary that would
// say so. A node builds it at most once per round. The engine runs every
// call, response and payload of a round before the first delivery, and only
// deliveries change holdings, so the digest a node's call built is still
// exact when the same node answers a pull or is asked for its payload later
// in the round, and a receiver that finds the sender's stamp equal to the
// current round reads the row the sender's message was charged for.
type wideDigest struct {
	held, summaryBytes int
	round              int // the protocol round the digest was built in (0: never)
}

func newWideProtocol(algo Algorithm, net *phonecall.Network, set *rumorset.Set) *wideProtocol {
	_, carries := algo.Call(false, false)
	return &wideProtocol{
		carries: carries,
		algo:    algo,
		onNet:   onNet{net},
		set:     set,
		digests: make([]wideDigest, set.Nodes()),
		snaps:   make([]uint64, set.Nodes()*set.Words()),
		isLive:  func(i int) bool { return !net.IsFailed(i) },
	}
}

// beginRound and endRound bracket one engine round with the set's read view:
// every event, inject and retirement — everything that changes the table —
// runs on the coordinator outside the bracket.
func (p *wideProtocol) beginRound() {
	p.view = p.set.View()
	p.round++
}

func (p *wideProtocol) endRound() { p.view.Release() }

func (p *wideProtocol) snap(i int) []uint64 {
	words := p.set.Words()
	return p.snaps[i*words : (i+1)*words]
}

// digest returns the view over node i's digest for the current round, taking
// the row snapshot on the round's first use. A node that did not initiate with
// its holdings (pull, or a round it sat out) takes it here when it is first
// pulled from.
func (p *wideProtocol) digest(i int) phonecall.SetView {
	d := &p.digests[i]
	if d.round != p.round {
		d.held, d.summaryBytes = p.view.SnapshotRow(p.snap(i), i)
		d.round = p.round
	}
	return phonecall.SetView{Held: d.held, Active: p.active, SummaryBytes: d.summaryBytes}
}

// call implements the per-node initiation from the shared decision table,
// with the bitmask protocol's predicates read off the ledger: empty is "holds
// no in-flight rumor", complete is "holds every in-flight rumor". A protocol
// that carries holdings takes the view from the digest its payload needs
// anyway; one that never does (pull) only counts the row's bits.
func (p *wideProtocol) call(i int) phonecall.Call {
	if !p.carries {
		v := phonecall.SetView{Held: p.view.HeldCount(i), Active: p.active}
		return p.algo.call(v.Empty(), v.Complete())
	}
	v := p.digest(i)
	return p.algo.call(v.Empty(), v.Complete())
}

// payload is the holdings digest a calling node pushes, built by its call.
func (p *wideProtocol) payload(i int) phonecall.Message { return p.digest(i).Message(p.net) }

// response answers pulls with the responder's holdings digest.
func (p *wideProtocol) response(j int) (phonecall.Message, bool) {
	v := p.digest(j)
	if !p.algo.Answers(v.Empty()) {
		return phonecall.Message{}, false
	}
	return v.Message(p.net), true
}

// deliver merges the row snapshot behind every received holdings message into
// the receiver's ledger row. A message whose sender does not resolve, or whose
// sender took no snapshot this round, is ignored: there is no row it could
// stand for.
func (p *wideProtocol) deliver(i int, inbox []phonecall.Message) {
	for k := range inbox {
		if inbox[k].Tag != phonecall.TagHoldings {
			continue
		}
		if j, ok := p.net.IndexOf(inbox[k].From); ok && p.digests[j].round == p.round {
			p.view.MergeRow(i, p.snap(j))
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

// informed is the set's column count over the live rows.
func (p *wideProtocol) informed(dst []trace.RumorCount) []trace.RumorCount {
	p.scan, p.counts = p.set.AppendLive(p.scan[:0], p.counts[:0])
	for k, id := range p.scan {
		dst = append(dst, trace.RumorCount{Rumor: phonecall.RumorID(id), LiveInformed: p.counts[k]})
	}
	return dst
}

// converged is the set's AND scan over the live rows — the convergence
// authority the free-running monitor uses too — so a round's completion test
// costs the rows' words, not a count of every rumor. A rumor all live nodes
// hold has exactly live live holders: the set fails and revives the nodes
// the network does.
func (p *wideProtocol) converged(dst []trace.RumorCount, live int) []trace.RumorCount {
	if p.active == 0 {
		return dst
	}
	p.scan = p.set.ScanConverged(p.scan[:0], p.isLive)
	for _, id := range p.scan {
		dst = append(dst, trace.RumorCount{Rumor: phonecall.RumorID(id), LiveInformed: live})
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
	p.spread = p.informed(p.spread[:0])
	return worstSpread(p.spread, p.net.LiveCount())
}

// HoldsAll implements phonecall.Holdings.
func (p *wideProtocol) HoldsAll(node int) bool {
	return p.opened && p.set.HeldCount(node) == p.active
}
