package scenario

import (
	"fmt"
	"math/bits"

	"repro/internal/phonecall"
	"repro/internal/trace"
)

// The steppable protocols: multi-rumor generalizations of the classical
// uniform gossip protocols, expressed directly through the engine's per-node
// callback contract so the scenario driver can interleave timeline events
// between rounds. A node's holdings are a single uint64 bitmask (one bit per
// rumor, see phonecall.RumorTracker); a message carries the sender's whole
// holdings and is charged one payload per carried rumor.
//
// The paper's clustering algorithms are phase-structured, closed drivers and
// are not steppable; they run under scenarios through Timeline.Attach
// instead (churn and loss, single implicit rumor).

// Algorithm selects a steppable scenario protocol.
type Algorithm string

// The steppable protocols.
const (
	// AlgoPush: every node holding at least one rumor pushes its holdings to
	// a uniformly random node; empty nodes stay silent.
	AlgoPush Algorithm = "push"
	// AlgoPull: every node missing at least one injected rumor pulls from a
	// uniformly random node (anti-entropy); the responder answers with its
	// holdings.
	AlgoPull Algorithm = "pull"
	// AlgoPushPull: every node exchanges with a uniformly random node,
	// sending its holdings (if any) and receiving the callee's.
	AlgoPushPull Algorithm = "push-pull"
)

// Algorithms lists the steppable protocols in comparison order.
func Algorithms() []Algorithm { return []Algorithm{AlgoPush, AlgoPull, AlgoPushPull} }

// OrDefault resolves the empty algorithm to the default and rejects unknown
// names; the scenario driver and the live runtime's constructors all
// validate through it.
func (a Algorithm) OrDefault() (Algorithm, error) {
	switch a {
	case "":
		return AlgoPushPull, nil
	case AlgoPush, AlgoPull, AlgoPushPull:
		return a, nil
	default:
		return "", fmt.Errorf("scenario: unknown algorithm %q (have push, pull, push-pull)", a)
	}
}

// Call is the protocols' decision table — the one place that says what a
// node initiates in a round, consumed by the bitmask protocol, the wide
// protocol, the live runtime's node step and, through Step, the closed
// single-rumor drivers alike. empty: the node holds no rumor; complete: it
// holds every rumor registered so far (both are true before the first
// injection). Push is silent when empty, pull is silent when complete,
// push-pull always calls. The intent comes without a payload; withHoldings
// tells the caller to attach its holdings (a push-pull call without them is a
// bare pull).
func (a Algorithm) Call(empty, complete bool) (it phonecall.Intent, withHoldings bool) {
	switch a {
	case AlgoPush:
		if empty {
			return phonecall.Silent(), false
		}
		return phonecall.PushIntent(phonecall.RandomTarget(), phonecall.Message{}), true
	case AlgoPull:
		if complete {
			return phonecall.Silent(), false
		}
		return phonecall.PullIntent(phonecall.RandomTarget()), false
	default: // AlgoPushPull
		return phonecall.ExchangeIntent(phonecall.RandomTarget(), phonecall.Message{}), !empty
	}
}

// call is Call in the engine's call form (phonecall.Network.ExecCalls),
// where an Exchange always carries its payload: a push-pull call without
// holdings is a bare Pull. Every Push or Exchange it returns carries the
// node's holdings.
func (a Algorithm) call(empty, complete bool) phonecall.Call {
	it, withHoldings := a.Call(empty, complete)
	if it.Kind == phonecall.Exchange && !withHoldings {
		it.Kind = phonecall.Pull
	}
	return phonecall.Call{Kind: it.Kind, Target: it.Target}
}

// Answers is the table's response column: whether a pulled node hands its
// holdings to the round's pullers. Push never answers, and nobody answers
// with nothing.
func (a Algorithm) Answers(empty bool) bool { return a != AlgoPush && !empty }

// Step is the table as the engine's per-node callbacks in the call form
// (phonecall.Network.ExecCalls), for a caller that keeps a single rumor in
// its own state: has reports whether node i holds it, mark records that it
// now does. A holder is complete and a non-holder empty. rumor is the
// payload of every Push or Exchange call — only a holder's call carries
// one — and the answer wherever Answers says yes, and deliver marks a node
// on any message with Rumor set. Push gets no responder at all: it never
// answers, and a nil responder leaves a behavior nothing to rewrite into an
// answer.
//
// With one rumor a node is in one of two cells, so both cells' calls are
// read off the table here, once, and each node round costs one has call.
func (a Algorithm) Step(has func(int) bool, mark func(int), rumor phonecall.Message) (
	call func(int) phonecall.Call,
	payload func(int) phonecall.Message,
	respond func(int) (phonecall.Message, bool),
	deliver func(int, []phonecall.Message),
) {
	holder, nonHolder := a.call(false, true), a.call(true, false)
	call = func(i int) phonecall.Call {
		if has(i) {
			return holder
		}
		return nonHolder
	}
	payload = func(int) phonecall.Message { return rumor }
	if a.Answers(false) {
		respond = func(j int) (phonecall.Message, bool) {
			if !has(j) { // nobody answers with nothing
				return phonecall.Message{}, false
			}
			return rumor, true
		}
	}
	deliver = func(i int, inbox []phonecall.Message) {
		for _, m := range inbox {
			if m.Rumor {
				mark(i)
				return
			}
		}
	}
	return call, payload, respond, deliver
}

// ledger is the seam between the scenario driver and a run's rumor holdings:
// what the coordinator asks of them between rounds, so that Run's loop is
// written once, and the Target every event of the run is applied to. Two
// representations implement it — the 64-bit mask (protocol, below) and the
// rumor-set window (wideProtocol, wide.go) — and Run picks one from the
// timeline it is handed, never from an option. The per-node side stays off
// the interface: Run takes call, payload, response and deliver from the
// concrete type once, as method values, so the engine's callbacks pay no
// dispatch.
//
// Inject, Fail, Revive and LostInjects are phonecall.RumorTracker's, names
// and contracts, so the mask ledger takes them from the tracker it embeds.
type ledger interface {
	phonecall.Holdings
	Target
	LostInjects() int64
	// informed appends the live-informed count of every in-flight rumor to
	// dst, ordered by rumor ID. The driver asks at phase closes and at the
	// end of the run; observers through WorstSpread.
	informed(dst []trace.RumorCount) []trace.RumorCount
	// converged appends, in no particular order, every in-flight rumor that
	// all live nodes hold after the round just run, with its live-informed
	// count; live is the live count, at least 1. It is the driver's
	// per-round completion test.
	converged(dst []trace.RumorCount, live int) []trace.RumorCount
	// beginRound and endRound bracket every engine round, on the coordinator:
	// whatever the representation must hold still while the engine's shards
	// run its callbacks is taken in one and given back in the other.
	beginRound()
	endRound()
	// retire is handed the rumors the whole live population holds after the
	// round just run and reports whether the ledger dropped them: their counts
	// are then final, and a later inject of the same ID opens a new epoch.
	retire(done []trace.RumorCount) bool
}

// protocol is the mask ledger: one steppable protocol over a
// phonecall.RumorTracker, whose MaskView supplies the per-node half — the
// table's predicates, the holdings message and its charge, the merge. A rumor
// stays in flight from its first injection to the end of the run.
type protocol struct {
	*phonecall.RumorTracker
	onNet
	algo   Algorithm
	spread []trace.RumorCount // WorstSpread's scratch
}

func newProtocol(algo Algorithm, net *phonecall.Network, tr *phonecall.RumorTracker) *protocol {
	return &protocol{RumorTracker: tr, onNet: onNet{net}, algo: algo}
}

// onNet is the half of Target both ledgers take from the network itself.
type onNet struct{ net *phonecall.Network }

func (o onNet) SetLoss(rate float64, seed uint64)          { o.net.SetLoss(rate, seed) }
func (o onNet) SetBehavior(node int, b phonecall.Behavior) { o.net.SetBehavior(node, b) }
func (o onNet) PeerSelector() phonecall.PeerSelector       { return o.net.PeerSelector() }

// call implements the per-node initiation of the selected protocol. Reads
// only node i's own holdings word plus the coordinator-written registered
// mask, per the engine's callback contract.
func (p *protocol) call(i int) phonecall.Call {
	v := p.View(i)
	return p.algo.call(v.Empty(), v.Complete())
}

// payload is the holdings a calling node pushes: the payload of every Push
// or Exchange call.
func (p *protocol) payload(i int) phonecall.Message { return p.View(i).Message(p.net) }

// response answers pulls with the responder's holdings (address-oblivious:
// one response per round, handed to every puller).
func (p *protocol) response(j int) (phonecall.Message, bool) {
	v := p.View(j)
	if !p.algo.Answers(v.Empty()) {
		return phonecall.Message{}, false
	}
	return v.Message(p.net), true
}

// deliver merges every received holdings mask into the receiver's own.
func (p *protocol) deliver(i int, inbox []phonecall.Message) {
	v := p.View(i)
	var gain uint64
	for _, m := range inbox {
		g, _ := v.Merge(m)
		gain |= g
	}
	if gain != 0 {
		p.MarkSet(i, gain)
	}
}

func (p *protocol) informed(dst []trace.RumorCount) []trace.RumorCount {
	for reg := p.Registered(); reg != 0; reg &= reg - 1 {
		r := phonecall.RumorID(bits.TrailingZeros64(reg))
		dst = append(dst, trace.RumorCount{Rumor: r, LiveInformed: p.LiveInformed(r)})
	}
	return dst
}

func (p *protocol) converged(dst []trace.RumorCount, live int) []trace.RumorCount {
	for reg := p.Registered(); reg != 0; reg &= reg - 1 {
		r := phonecall.RumorID(bits.TrailingZeros64(reg))
		if c := p.LiveInformed(r); c >= live {
			dst = append(dst, trace.RumorCount{Rumor: r, LiveInformed: c})
		}
	}
	return dst
}

// The mask's words need no bracket: each is read and written by its node's
// owner alone.
func (p *protocol) beginRound() {}
func (p *protocol) endRound()   {}

// retire keeps every rumor: a mask bit costs nothing to carry on.
func (p *protocol) retire([]trace.RumorCount) bool { return false }

// WorstSpread implements phonecall.Holdings.
func (p *protocol) WorstSpread() int {
	p.spread = p.informed(p.spread[:0])
	return worstSpread(p.spread, 0)
}

// HoldsAll implements phonecall.Holdings.
func (p *protocol) HoldsAll(node int) bool {
	v := p.View(node)
	return v.Registered != 0 && v.Complete()
}

// worstSpread is the smallest live-informed count of an informed snapshot,
// or none when no rumor is in flight.
func worstSpread(informed []trace.RumorCount, none int) int {
	if len(informed) == 0 {
		return none
	}
	worst := informed[0].LiveInformed
	for _, rc := range informed[1:] {
		worst = min(worst, rc.LiveInformed)
	}
	return worst
}
