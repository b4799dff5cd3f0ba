package oracle

import (
	"repro/internal/phonecall"
	"repro/internal/rng"
)

// This file is the model definition of one synchronous round, transcribed
// from DESIGN.md §2 (the random phone call model with direct addressing,
// Section 2 of the paper, plus the Section 8 live-participant failure rule
// and the oblivious per-call loss extension). It deliberately shares no code
// with the sharded engine: everything is naive — one pass over the nodes in
// index order, plain slices and appends, no arenas, no shards.
//
// Two consumers build on it: the Oracle (a complete reference engine) and
// the invariant Checker (which replays the intents it observed the real
// engine evaluate and demands the same charges and inboxes). Keeping the
// model in one place means the two verifiers cannot drift apart.
//
// The spec's randomness contracts (documented with the engine and locked in
// by the differential tests):
//
//   - a random target of initiator i in round r is
//     rng.BoundedUint64(n, seed, 0xc0ffee, r, i, attempt), retrying
//     attempt = 0, 1, ... until the result differs from i;
//   - with loss rate p, initiator i's call in round r is dropped iff
//     float64(rng.Mix(lossSeed, 0x70ca1, r, i) >> 11) / 2^53 < p.
const (
	randomTargetTag = 0xc0ffee
	lossTag         = 0x70ca1
)

// roundEnv is what the model needs to know about the network to evaluate one
// round: sizes, membership, the ID directory and the bit-accounting rules.
type roundEnv struct {
	N        int
	Round    int
	Seed     uint64
	LossRate float64
	LossSeed uint64
	IsFailed func(i int) bool
	ID       func(i int) phonecall.NodeID
	IndexOf  func(id phonecall.NodeID) (int, bool)
	// MessageBits is the size of a payload message; ControlBits the size of
	// a pull request.
	MessageBits func(m phonecall.Message) int
	ControlBits int
	// SelectPeer, when non-nil, replaces the uniform random-target contract
	// with a policy-driven one — the model twin of an installed
	// phonecall.PeerSelector. ok=false means no admissible peer: the call is
	// charged to the initiator but reaches nobody, exactly like an
	// unresolvable direct target.
	SelectPeer func(round, i int) (int, bool)
}

// specCall is one node's evaluated communication for the round.
type specCall struct {
	kind phonecall.Kind
	// target is the live node the call reached, or -1 when the call went
	// nowhere (silent node, unresolved or dead target, lost in transit).
	target int
	// payload is the pushed message with From stamped; hasPayload marks that
	// one is transmitted (Push always; Exchange only with content in the
	// Intent form, always in the call form).
	payload    phonecall.Message
	hasPayload bool
}

// specRound accumulates the model's view of one round. Feed every live
// node's intent with addIntent (ascending node order is not required — the
// model is order-free — but inbox assembly is by initiator index), then
// answer pulled() with addResponse, then read the outcome.
type specRound struct {
	env   roundEnv
	calls []specCall
	acted []bool
	comms []int
	pulls []int
	resp  []phonecall.Message
	ok    []bool

	msgs    int64
	control int64
	bits    int64
}

func newSpecRound(env roundEnv) *specRound {
	return &specRound{
		env:   env,
		calls: make([]specCall, env.N),
		acted: make([]bool, env.N),
		comms: make([]int, env.N),
		pulls: make([]int, env.N),
		resp:  make([]phonecall.Message, env.N),
		ok:    make([]bool, env.N),
	}
}

// randomTarget resolves initiator i's uniformly random contact.
func (s *specRound) randomTarget(i int) int {
	for attempt := uint64(0); ; attempt++ {
		j := int(rng.BoundedUint64(uint64(s.env.N),
			s.env.Seed, randomTargetTag, uint64(s.env.Round), uint64(i), attempt))
		if j != i {
			return j
		}
	}
}

// resolve maps a target to (index, ok). Self-calls, the NoNode sentinel and
// IDs absent from the directory do not resolve.
func (s *specRound) resolve(i int, t phonecall.Target) (int, bool) {
	if t.Random {
		if s.env.SelectPeer != nil {
			return s.env.SelectPeer(s.env.Round, i)
		}
		return s.randomTarget(i), true
	}
	if t.ID == phonecall.NoNode {
		return 0, false
	}
	j, ok := s.env.IndexOf(t.ID)
	if !ok || j == i {
		return j, false
	}
	return j, true
}

// dropped reports whether initiator i's call is lost in transit this round.
func (s *specRound) dropped(i int) bool {
	h := rng.Mix(s.env.LossSeed, lossTag, uint64(s.env.Round), uint64(i))
	return float64(h>>11)/float64(1<<53) < s.env.LossRate
}

// addIntent evaluates node i's intent in the Intent form, where an Exchange
// transmits its payload only if the payload has content.
func (s *specRound) addIntent(i int, it phonecall.Intent) {
	sends := it.Kind == phonecall.Push || (it.Kind == phonecall.Exchange && it.Payload.HasContent())
	if s.addCall(i, phonecall.Call{Kind: it.Kind, Target: it.Target}, sends) {
		s.addPayload(i, it.Payload)
	}
}

// addCall evaluates node i's call: target resolution, the live-participant
// communication charges, the pull request's charge when the call sends no
// payload, and the pull bookkeeping. Kinds outside the model still count as
// an attempted communication for both live participants but transmit
// nothing. It reports whether the call owes a payload (sends), which the
// caller then hands to addPayload.
func (s *specRound) addCall(i int, it phonecall.Call, sends bool) bool {
	if it.Kind == phonecall.None {
		return false
	}
	s.acted[i] = true
	j, ok := s.resolve(i, it.Target)
	s.comms[i]++
	// The live-participant rule: only a live, reachable target takes part in
	// the communication. A call to a dead node and a call lost in transit
	// charge the initiator (it attempted) but never the target.
	live := ok && !s.env.IsFailed(j)
	if live && s.env.LossRate > 0 && s.dropped(i) {
		live = false
	}
	target := -1
	if live {
		s.comms[j]++
		target = j
	}
	s.calls[i] = specCall{kind: it.Kind, target: target}
	switch it.Kind {
	case phonecall.Push:
		return true
	case phonecall.Pull, phonecall.Exchange:
		if !sends {
			s.control++
			s.bits += int64(s.env.ControlBits)
		}
		if live {
			s.pulls[j]++
		}
		return sends
	}
	return false
}

// addPayload charges node i's payload — reached target or not, the sender
// transmitted it — and records it for delivery.
func (s *specRound) addPayload(i int, m phonecall.Message) {
	m.From = s.env.ID(i)
	s.msgs++
	s.bits += int64(s.env.MessageBits(m))
	s.calls[i].payload, s.calls[i].hasPayload = m, true
}

// pulled returns, in ascending order, the nodes at least one live pull
// reached this round — exactly the nodes whose response the model evaluates
// (once each).
func (s *specRound) pulled() []int {
	var out []int
	for d := 0; d < s.env.N; d++ {
		if s.pulls[d] > 0 {
			out = append(out, d)
		}
	}
	return out
}

// addResponse records node d's address-oblivious response. The single
// response is handed to every puller and each copy is charged.
func (s *specRound) addResponse(d int, m phonecall.Message, ok bool) {
	if !ok || s.pulls[d] == 0 {
		return
	}
	m.From = s.env.ID(d)
	k := int64(s.pulls[d])
	s.msgs += k
	s.bits += int64(s.env.MessageBits(m)) * k
	s.resp[d] = m
	s.ok[d] = true
}

// inboxes assembles every node's inbox in the model's defined order: by
// initiator index, a puller's own incoming response sitting at its initiator
// position. Index d holds node d's inbox (nil when empty).
func (s *specRound) inboxes() [][]phonecall.Message {
	out := make([][]phonecall.Message, s.env.N)
	for i := 0; i < s.env.N; i++ {
		c := &s.calls[i]
		if c.target < 0 {
			continue
		}
		if c.hasPayload {
			out[c.target] = append(out[c.target], c.payload)
		}
		if (c.kind == phonecall.Pull || c.kind == phonecall.Exchange) && s.ok[c.target] {
			out[i] = append(out[i], s.resp[c.target])
		}
	}
	return out
}

// maxComms returns the round's Δ: the most communications any single node
// participated in.
func (s *specRound) maxComms() int {
	m := 0
	for _, c := range s.comms {
		if c > m {
			m = c
		}
	}
	return m
}

// report summarizes the round like the engine's RoundReport.
func (s *specRound) report() phonecall.RoundReport {
	return phonecall.RoundReport{
		Round:    s.env.Round,
		Messages: s.msgs + s.control,
		Bits:     s.bits,
		MaxComms: s.maxComms(),
	}
}
