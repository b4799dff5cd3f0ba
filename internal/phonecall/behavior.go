package phonecall

import (
	"math/bits"

	"repro/internal/rng"
)

// Per-node behaviors: the Byzantine seam. A Behavior intercepts a node's
// outgoing traffic — the call it initiates with its payload, and the
// response it would give to pullers — and may rewrite either. Honest is the
// zero value: nodes without a behavior run the protocol's callbacks
// untouched, and a run with no behaviors installed takes the exact same code
// path as before the seam existed (bit-identical, allocation-free).
//
// Behaviors rewrite only what a real faulty process could control: its own
// outgoing calls and answers. Delivery stays honest — a corrupted node still
// receives and merges its inbox — and the engine's bookkeeping (charges,
// inbox order, Δ, exactly-once calls) applies to the rewritten traffic,
// so the model invariants of internal/oracle hold under every behavior.
// What breaks is only the honest-node contract (truthful holdings, no
// forged bits), which the oracle asserts exclusively for uncorrupted nodes.
//
// Every library behavior below is a pure function of (round, node) and its
// own frozen configuration, with all randomness drawn from stateless rng
// hashes. That purity is what lets the same behavior run bit-identically on
// the sharded simulator, the lock-step live runtime (which receives the
// wrapped callbacks through the executor seam) and the free-running runtime
// (which applies the same rewrites around its hand-rolled send path).

// TagHoldings marks messages whose Value is a rumor-holdings bitmask (the
// steppable protocols of internal/scenario and the free-running runtime).
// The holdings-directed behaviors (Liar, Stale) rewrite only these.
const TagHoldings uint8 = 111

// Hash stream tags for the behavior library, disjoint from the engine's
// randomTargetTag/lossTag streams.
const (
	liarTag    uint64 = 0x11a4
	spamTagVal uint64 = 0x59a3
)

// Behavior is one node's (mis)behavior. Implementations must be pure: the
// engine invokes them from concurrent shards and the live runtimes from node
// goroutines, and cross-engine conformance relies on the same inputs
// producing the same rewrites.
type Behavior interface {
	// RewriteCall may replace, jointly, the call node i initiates in round
	// r and its payload — m for a Push or Exchange, empty for any other call
	// — so a behavior may decide the call from what the payload says. target
	// is the index the call's target resolves to (Network.Contact), or -1;
	// it lets behaviors act on the destination without re-deriving it.
	RewriteCall(round, node, target int, c Call, m Message) (Call, Message)
	// RewriteResponse may replace the address-oblivious response node i
	// hands to this round's pullers. ok=false suppresses the response.
	RewriteResponse(round, node int, m Message, ok bool) (Message, bool)
}

// SetBehavior installs b as node i's behavior from the next round on (nil
// restores honesty). Coordinator-only, like Fail and SetLoss: call it before
// Run or from an OnRoundStart hook, never from a callback.
func (net *Network) SetBehavior(i int, b Behavior) {
	if i < 0 || i >= net.n {
		return
	}
	if net.behaviors == nil {
		if b == nil {
			return
		}
		net.behaviors = make([]Behavior, net.n)
		net.rewrites = make([]Message, net.n)
		net.corruptSet = NewNodeSet(net.n)
		net.evalSet = NewNodeSet(net.n)
	}
	if (net.behaviors[i] == nil) != (b == nil) {
		if b == nil {
			net.corrupted--
		} else {
			net.corrupted++
		}
		net.corruptSet.Put(i, b != nil)
	}
	net.behaviors[i] = b
}

// Corrupted reports whether node i currently has a behavior installed.
func (net *Network) Corrupted(i int) bool {
	return net.behaviors != nil && i >= 0 && i < net.n && net.behaviors[i] != nil
}

// CorruptedCount returns the number of nodes with a behavior installed.
func (net *Network) CorruptedCount() int { return net.corrupted }

// behaviorCallbacks wraps the round's callbacks with the installed
// behaviors. Applied before the observer wrap, so verifiers see the
// post-rewrite traffic (the traffic that is actually charged and delivered),
// and before executor delegation, so the live lock-step runtime inherits
// behaviors without knowing they exist. The rewrite is joint, so a
// corrupted node's payload is asked for with its call and parked in rewrites
// until the round asks for it; honest payloads keep their place after the
// responses. A corrupted node outside the round's initiator set is
// evaluated all the same, and its behavior rewrites the silent call the
// protocol's callOf was not asked for. responseOf may be nil; behaviors
// cannot invent a response stream the protocol does not have.
func (net *Network) behaviorCallbacks(
	callers NodeSet,
	callOf func(i int) Call,
	payloadOf func(i int) Message,
	responseOf func(i int) (Message, bool),
) (func(i int) Call, func(i int) Message, func(i int) (Message, bool)) {
	behaviors, rewrites := net.behaviors, net.rewrites
	round := net.round
	wrappedCall := func(i int) Call {
		var c Call
		if callers == nil || callers.Has(i) {
			c = callOf(i)
		}
		b := behaviors[i]
		if b == nil {
			return c
		}
		var m Message
		if c.Kind == Push || c.Kind == Exchange {
			m = payloadOf(i)
		}
		target := -1
		if c.Kind != None {
			target = net.Contact(round, i, c.Target)
		}
		c, rewrites[i] = b.RewriteCall(round, i, target, c, m)
		return c
	}
	wrappedPayload := func(i int) Message {
		if behaviors[i] != nil {
			return rewrites[i]
		}
		return payloadOf(i)
	}
	if responseOf == nil {
		return wrappedCall, wrappedPayload, nil
	}
	wrappedResponse := func(i int) (Message, bool) {
		m, ok := responseOf(i)
		b := behaviors[i]
		if b == nil {
			return m, ok
		}
		return b.RewriteResponse(round, i, m, ok)
	}
	return wrappedCall, wrappedPayload, wrappedResponse
}

// behaviorHash is the behaviors' stateless coin: a pure function of the
// behavior's own seed stream, the round and the node.
func behaviorHash(tag, seed uint64, round, node int) uint64 {
	return rng.Mix(seed, tag, uint64(round), uint64(node))
}

// Liar advertises wrong holdings. Every outgoing holdings message
// (TagHoldings) keeps only a pseudo-random subset of the node's true rumor
// bits and gains forged bits confined to the unregistered rumor space —
// honest receivers mask unregistered bits away (RumorTracker.MarkSet), so
// forgeries waste bandwidth and verification effort without ever informing
// anyone, while the hidden true bits slow the spread. Non-holdings traffic
// passes through: the liar speaks the rumor-set vocabulary.
type Liar struct {
	// Seed drives the hide/forge coin stream.
	Seed uint64
	// Registered, when set, returns the currently registered rumor mask;
	// forged bits are drawn outside it. When nil the liar forges nothing
	// (it only withholds).
	Registered func() uint64
}

func (l Liar) rewrite(round, node int, m Message) Message {
	if m.Tag != TagHoldings {
		return m
	}
	h := behaviorHash(liarTag, l.Seed, round, node)
	m.Value &= h // keep a pseudo-random subset of the true bits
	if l.Registered != nil {
		forged := bits.RotateLeft64(h, 17) &^ l.Registered()
		m.Value |= forged
	}
	return m
}

// RewriteCall implements Behavior.
func (l Liar) RewriteCall(round, node, target int, c Call, m Message) (Call, Message) {
	return c, l.rewrite(round, node, m)
}

// RewriteResponse implements Behavior.
func (l Liar) RewriteResponse(round, node int, m Message, ok bool) (Message, bool) {
	if !ok {
		return m, ok
	}
	return l.rewrite(round, node, m), true
}

// Spammer floods the network with junk at a configurable rate: in a spamming
// round it discards whatever the protocol wanted to do and pushes a junk
// rumor-tagged message at a random peer, and it answers pulls with the same
// junk. The model caps initiations at one call per node per round, so the
// flood is rate-bounded by construction; what the spammer costs the network
// is the useful work it replaces plus the bandwidth its junk is charged.
type Spammer struct {
	// Rate is the per-round spamming probability in [0,1]. 0 means always
	// (the zero-value spammer is a full-rate flooder).
	Rate float64
	// Seed drives the spam coin and payload streams.
	Seed uint64
}

// TagSpam marks spammer junk. No protocol interprets it: receivers charge
// and discard it.
const TagSpam uint8 = 90

func (s Spammer) rate() float64 {
	if s.Rate == 0 {
		return 1
	}
	return s.Rate
}

func (s Spammer) spamming(round, node int) bool {
	h := behaviorHash(spamTagVal, s.Seed, round, node)
	return rng.Unit(h) < s.rate()
}

func (s Spammer) junk(round, node int) Message {
	return Message{
		Tag:   TagSpam,
		Value: behaviorHash(spamTagVal+1, s.Seed, round, node),
		Rumor: true, // charged one payload, like a real rumor
	}
}

// RewriteCall implements Behavior.
func (s Spammer) RewriteCall(round, node, target int, c Call, m Message) (Call, Message) {
	if !s.spamming(round, node) {
		return c, m
	}
	return Call{Kind: Push, Target: RandomTarget()}, s.junk(round, node)
}

// RewriteResponse implements Behavior.
func (s Spammer) RewriteResponse(round, node int, m Message, ok bool) (Message, bool) {
	if !s.spamming(round, node) {
		return m, ok
	}
	return s.junk(round, node), true
}

// Eclipse silently drops all traffic between the corrupted node and a victim
// set: outgoing calls that resolve to a victim become silence, and — because
// responses are address-oblivious, one answer handed to every puller — the
// dropper suppresses its response stream entirely rather than leak state to
// a pulling victim. Corrupting every non-victim with the same Eclipse cuts
// the victims off from the rumor completely.
type Eclipse struct {
	victims map[int]bool
}

// NewEclipse builds an eclipse dropper targeting the given victims.
func NewEclipse(victims []int) Eclipse {
	set := make(map[int]bool, len(victims))
	for _, v := range victims {
		set[v] = true
	}
	return Eclipse{victims: set}
}

// Victims returns the victim set (sorted order not guaranteed).
func (e Eclipse) Victims() []int {
	out := make([]int, 0, len(e.victims))
	for v := range e.victims {
		out = append(out, v)
	}
	return out
}

// RewriteCall implements Behavior.
func (e Eclipse) RewriteCall(round, node, target int, c Call, m Message) (Call, Message) {
	if target >= 0 && e.victims[target] {
		return Call{}, Message{}
	}
	return c, m
}

// RewriteResponse implements Behavior.
func (e Eclipse) RewriteResponse(round, node int, m Message, ok bool) (Message, bool) {
	return Message{}, false
}

// Stale answers with outdated state: every outgoing holdings message is
// replaced by the mask frozen at corruption time. A Stale with Frozen == 0
// is mute — it stops pushing holdings (an exchange becomes a bare pull) and
// stops answering pulls. Either way the node keeps receiving (its tracker
// keeps advancing); it just never tells anyone.
type Stale struct {
	// Frozen is the holdings mask advertised forever after.
	Frozen uint64
}

// RewriteCall implements Behavior.
func (st Stale) RewriteCall(round, node, target int, c Call, m Message) (Call, Message) {
	if m.Tag != TagHoldings {
		return c, m
	}
	if st.Frozen == 0 {
		switch c.Kind {
		case Push:
			return Call{}, Message{}
		case Exchange:
			// Keep the pull half: the node still wants to learn.
			return Call{Kind: Pull, Target: c.Target}, Message{}
		}
		return c, m
	}
	m.Value = st.Frozen
	return c, m
}

// RewriteResponse implements Behavior.
func (st Stale) RewriteResponse(round, node int, m Message, ok bool) (Message, bool) {
	if !ok || m.Tag != TagHoldings {
		return m, ok
	}
	if st.Frozen == 0 {
		return Message{}, false
	}
	m.Value = st.Frozen
	return m, true
}
