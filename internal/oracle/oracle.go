// Package oracle is the verification subsystem of the reproduction: an
// independent re-implementation of the phone-call model that the optimized,
// sharded engine (internal/phonecall) is checked against.
//
// Three layers build on each other:
//
//   - Oracle is a deliberately naive, single-threaded reference engine
//     written straight from the model definition in DESIGN.md §2 — plain
//     maps and slices, one pass in node order, no arenas, no shards. It
//     reproduces ExecCalls, Fail/Revive, and oblivious per-call loss
//     bit-for-bit, so any divergence between it and the real engine is
//     a bug in one of them.
//   - The differential harness (diff.go, scenariodiff.go) runs randomized
//     protocols, churn scripts and scenario timelines through both engines
//     and asserts bit-identical traces, metrics and Δ accounting. It backs
//     the native fuzz targets FuzzEngineVsOracle and FuzzScenarioVsOracle.
//   - Checker (invariants.go) wraps a live Network through the engine's
//     RoundObserver seam and validates the per-round model contracts under
//     any protocol, closed or steppable.
//
// The package is the standing conformance gate for engine changes: perf work
// on internal/phonecall must keep `go test ./internal/oracle` and the fuzz
// corpus green.
package oracle

import (
	"fmt"
	"math/bits"

	"repro/internal/phonecall"
	"repro/internal/rng"
)

// Oracle is the naive reference engine. It accepts the same Config and
// exposes the same execution surface as phonecall.Network (ExecCalls,
// Fail, Revive, SetLoss, OnRoundStart, Metrics), and is
// documented to produce bit-identical results; Workers and PoisonInbox are
// ignored — the oracle is always single-threaded and callers always receive
// freshly built inboxes.
type Oracle struct {
	n           int
	seed        uint64
	payloadBits int
	idBits      int
	counterBits int
	tagBits     int

	ids    []phonecall.NodeID
	index  map[phonecall.NodeID]int
	failed map[int]bool

	round      int
	lossRate   float64
	lossSeed   uint64
	hook       func(round int)
	selectPeer func(round, i int) (int, bool)

	messages int64
	control  int64
	bits     int64
	maxComms int
}

// New builds a reference network from the same Config the engine takes.
// Node IDs follow the documented assignment procedure — successive draws
// from the SplitMix-seeded stream rng.New(rng.Mix(seed, 0x1d5)), each
// shifted into the non-zero 63-bit space and retried on collision — so an
// Oracle and a Network with the same Config have identical ID directories.
func New(cfg phonecall.Config) (*Oracle, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("oracle: network needs at least 2 nodes (got %d)", cfg.N)
	}
	if cfg.PayloadBits <= 0 {
		cfg.PayloadBits = phonecall.DefaultPayloadBits
	}
	logN := bits.Len(uint(cfg.N))
	o := &Oracle{
		n:           cfg.N,
		seed:        cfg.Seed,
		payloadBits: cfg.PayloadBits,
		idBits:      max(16, 2*logN),
		counterBits: logN + 1,
		tagBits:     8,
		ids:         make([]phonecall.NodeID, cfg.N),
		index:       make(map[phonecall.NodeID]int, cfg.N),
		failed:      make(map[int]bool),
	}
	idSource := rng.New(rng.Mix(cfg.Seed, 0x1d5))
	for i := 0; i < cfg.N; i++ {
		for {
			id := phonecall.NodeID(idSource.Uint64()>>1) + 1
			if _, taken := o.index[id]; !taken {
				o.ids[i] = id
				o.index[id] = i
				break
			}
		}
	}
	return o, nil
}

// N returns the number of nodes (including failed ones).
func (o *Oracle) N() int { return o.n }

// LiveCount returns the number of non-failed nodes.
func (o *Oracle) LiveCount() int { return o.n - len(o.failed) }

// Seed returns the execution seed.
func (o *Oracle) Seed() uint64 { return o.seed }

// PayloadBits returns b, the rumor size in bits.
func (o *Oracle) PayloadBits() int { return o.payloadBits }

// ID returns the ID of the node with the given index.
func (o *Oracle) ID(i int) phonecall.NodeID { return o.ids[i] }

// IndexOf returns the index of a node ID.
func (o *Oracle) IndexOf(id phonecall.NodeID) (int, bool) {
	i, ok := o.index[id]
	return i, ok
}

// IsFailed reports whether node i is failed.
func (o *Oracle) IsFailed(i int) bool { return o.failed[i] }

// Fail marks nodes as failed; out-of-range and already-failed indexes are
// ignored. Between rounds only, like the engine.
func (o *Oracle) Fail(indexes ...int) {
	for _, i := range indexes {
		if i >= 0 && i < o.n {
			o.failed[i] = true
		}
	}
}

// Revive marks failed nodes as live again; out-of-range and live indexes are
// ignored.
func (o *Oracle) Revive(indexes ...int) {
	for _, i := range indexes {
		if i >= 0 && i < o.n {
			delete(o.failed, i)
		}
	}
}

// SetLoss configures oblivious per-call loss from the next round on; rate is
// clamped to [0, 1].
func (o *Oracle) SetLoss(rate float64, seed uint64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	o.lossRate = rate
	o.lossSeed = seed
}

// OnRoundStart registers a hook invoked after the round counter advances and
// before any call is evaluated. A nil hook unregisters.
func (o *Oracle) OnRoundStart(hook func(round int)) { o.hook = hook }

// SetSelectPeer installs a policy-driven random-contact resolver, the
// reference twin of phonecall.Network.SetPeerSelector: every random target
// from the next round on is sel's answer for (round, initiator), and ok=false
// charges the initiator without reaching anybody. A nil sel restores the
// uniform contract. Like Fail and SetLoss, only call between rounds.
func (o *Oracle) SetSelectPeer(sel func(round, i int) (int, bool)) { o.selectPeer = sel }

// MessageSize returns the size in bits of a message under the paper's
// accounting rules.
func (o *Oracle) MessageSize(m phonecall.Message) int {
	if m.Bits > 0 {
		return m.Bits
	}
	size := o.tagBits + o.counterBits + len(m.IDs)*o.idBits
	if m.Rumor {
		size += o.payloadBits
	}
	return size
}

// ControlBits returns the size in bits of a pull request.
func (o *Oracle) ControlBits() int { return o.tagBits + o.idBits }

// Metrics returns the accumulated metrics.
func (o *Oracle) Metrics() phonecall.Metrics {
	return phonecall.Metrics{
		Rounds:           o.round,
		Messages:         o.messages,
		ControlMessages:  o.control,
		Bits:             o.bits,
		MaxCommsPerRound: o.maxComms,
	}
}

// env binds the spec evaluator to the oracle's current state.
func (o *Oracle) env() roundEnv {
	return roundEnv{
		N:        o.n,
		Round:    o.round,
		Seed:     o.seed,
		LossRate: o.lossRate,
		LossSeed: o.lossSeed,
		IsFailed: o.IsFailed,
		ID:       o.ID,
		IndexOf:  o.IndexOf,
		MessageBits: func(m phonecall.Message) int {
			return o.MessageSize(m)
		},
		ControlBits: o.ControlBits(),
		SelectPeer:  o.selectPeer,
	}
}

// ExecCalls executes one synchronous round under the engine's callback
// contract: callOf once per live node, then responseOf at most once per
// pulled node, then payloadOf once per Push or Exchange call — an Exchange
// always carries its payload, content or not — then deliver once per node
// that received messages, inboxes ordered by initiator index. A nil
// payloadOf sends empty messages; a nil callOf is an empty round.
func (o *Oracle) ExecCalls(
	callOf func(i int) phonecall.Call,
	payloadOf func(i int) phonecall.Message,
	responseOf func(i int) (phonecall.Message, bool),
	deliver func(i int, inbox []phonecall.Message),
) phonecall.RoundReport {
	o.round++
	if o.hook != nil {
		o.hook(o.round)
	}
	if callOf == nil {
		return phonecall.RoundReport{Round: o.round}
	}

	s := newSpecRound(o.env())
	var owes []int
	for i := 0; i < o.n; i++ {
		if o.failed[i] {
			continue
		}
		if s.addCall(i, callOf(i)) {
			owes = append(owes, i)
		}
	}
	if responseOf != nil {
		for _, d := range s.pulled() {
			m, ok := responseOf(d)
			s.addResponse(d, m, ok)
		}
	}
	for _, i := range owes {
		var m phonecall.Message
		if payloadOf != nil {
			m = payloadOf(i)
		}
		s.addPayload(i, m)
	}
	if deliver != nil {
		for d, inbox := range s.inboxes() {
			if len(inbox) > 0 {
				deliver(d, inbox)
			}
		}
	}

	o.messages += s.msgs
	o.control += s.control
	o.bits += s.bits
	if mc := s.maxComms(); mc > o.maxComms {
		o.maxComms = mc
	}
	return s.report()
}
