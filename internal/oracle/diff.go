package oracle

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"repro/internal/phonecall"
	"repro/internal/rng"
)

// The differential harness: run the same scripted, randomized workload
// through the optimized engine and the reference Oracle and demand that
// every observable — per-round reports, response evaluations, the exact
// per-node delivery traces, and the final metrics — is bit-identical. The
// script is a pure function of its seeds, so any reported divergence replays
// deterministically.

// Engine is the execution surface shared by phonecall.Network and Oracle —
// the contract the differential harness drives both sides through.
type Engine interface {
	N() int
	ID(i int) phonecall.NodeID
	IsFailed(i int) bool
	LiveCount() int
	Fail(indexes ...int)
	Revive(indexes ...int)
	SetLoss(rate float64, seed uint64)
	ExecCalls(
		callOf func(i int) phonecall.Call,
		payloadOf func(i int) phonecall.Message,
		responseOf func(i int) (phonecall.Message, bool),
		deliver func(i int, inbox []phonecall.Message),
	) phonecall.RoundReport
	Metrics() phonecall.Metrics
}

var (
	_ Engine = (*phonecall.Network)(nil)
	_ Engine = (*Oracle)(nil)
)

// Script describes one differential workload: a network, a round budget and
// the seeds that deterministically derive every call, payload, response,
// churn event and loss decision.
type Script struct {
	// N is the network size; Rounds the number of rounds driven.
	N      int
	Rounds int
	// NetSeed seeds both engines; Workers shards the real engine (the
	// oracle ignores it).
	NetSeed uint64
	Workers int
	// ProtoSeed derives the scripted calls, payloads and responses.
	ProtoSeed uint64
	// LossRate, when positive, switches on per-call loss from round 1.
	LossRate float64
	LossSeed uint64
	// Churn, when set, applies a scripted sequence of Fail/Revive/SetLoss
	// events (derived from ChurnSeed) identically to both engines between
	// rounds.
	Churn     bool
	ChurnSeed uint64
	// EmptyExchanges keeps the script's exchanges without content: they
	// transmit and charge their empty payload. Otherwise such a node calls
	// Pull, as a caller with nothing to push does.
	EmptyExchanges bool
	// Dense makes every live node call a random node, pulling or
	// exchanging (a third of the exchanges without content), so most nodes
	// are pulled in every round.
	Dense bool
}

// normalized clamps the script to the ranges both engines accept.
func (sc Script) normalized() Script {
	if sc.N < 2 {
		sc.N = 2
	}
	if sc.Rounds < 1 {
		sc.Rounds = 1
	}
	if sc.Workers < 1 {
		sc.Workers = 1
	}
	if sc.LossRate < 0 {
		sc.LossRate = 0
	}
	if sc.LossRate > 1 {
		sc.LossRate = 1
	}
	return sc
}

// NewPair builds the engine-under-test and the reference oracle for a
// script. poison switches the engine's inbox-poison debug mode on, so the
// differential run simultaneously proves the harness honors the copy-out
// contract.
func NewPair(sc Script, poison bool) (*phonecall.Network, *Oracle, error) {
	sc = sc.normalized()
	cfg := phonecall.Config{N: sc.N, Seed: sc.NetSeed, Workers: sc.Workers, PoisonInbox: poison}
	net, err := phonecall.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: engine: %w", err)
	}
	orc, err := New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: reference: %w", err)
	}
	return net, orc, nil
}

// roundTrace is everything one engine exposed during one scripted round.
type roundTrace struct {
	report    phonecall.RoundReport
	inboxes   [][]phonecall.Message
	delivered []int32
	respSeen  []int32
	respMsg   []phonecall.Message
	respOK    []bool
}

// scriptTags separate the independent derivation streams of one ProtoSeed.
const (
	tagCall  = 0xd1f1
	tagResp  = 0xe5b0
	tagChurn = 0xc4c4
)

// callFor derives node i's call and payload for round r: a mix of pushes,
// pulls and exchanges over random and direct targets, including the edge
// cases the model must handle — self-addressed calls, the NoNode sentinel,
// unknown IDs, exchanges without content and out-of-model kinds; or, for a
// Dense script, a random pull or exchange.
func callFor(e Engine, sc Script, r, i int) (phonecall.Call, phonecall.Message) {
	h := rng.Mix(sc.ProtoSeed, tagCall, uint64(r), uint64(i))
	payload := func() phonecall.Message {
		m := phonecall.Message{Value: h >> 16, Tag: uint8(h >> 8), Rumor: h&1 == 0}
		if h%16 == 5 {
			m = phonecall.Message{} // contentless
		}
		if h%32 == 7 {
			m.Bits = int(h%509) + 1 // explicit bit-size override
		}
		if h%8 == 3 {
			m.IDs = []phonecall.NodeID{e.ID(int((h >> 24) % uint64(e.N())))}
		}
		return m
	}
	direct := func() phonecall.Target {
		x := (h >> 8) % uint64(e.N()+2)
		switch {
		case int(x) < e.N():
			return phonecall.DirectTarget(e.ID(int(x))) // sometimes self, sometimes dead
		case int(x) == e.N():
			return phonecall.DirectTarget(phonecall.NoNode)
		default:
			// An ID outside the directory: both engines must fail to resolve
			// it the same way.
			return phonecall.DirectTarget(phonecall.NodeID(1<<62 + h>>32))
		}
	}
	call := func(k phonecall.Kind, t phonecall.Target) phonecall.Call { return phonecall.Call{Kind: k, Target: t} }
	exchange := func(t phonecall.Target, m phonecall.Message) (phonecall.Call, phonecall.Message) {
		if !m.HasContent() && !sc.EmptyExchanges {
			return call(phonecall.Pull, t), phonecall.Message{}
		}
		return call(phonecall.Exchange, t), m
	}
	random := phonecall.RandomTarget()
	if sc.Dense {
		switch h % 3 {
		case 0:
			return call(phonecall.Pull, random), phonecall.Message{}
		case 1:
			return exchange(random, payload())
		default:
			return exchange(random, phonecall.Message{})
		}
	}
	switch h % 9 {
	case 0:
		return phonecall.Call{}, phonecall.Message{}
	case 1:
		return call(phonecall.Push, random), payload()
	case 2:
		return call(phonecall.Push, direct()), payload()
	case 3:
		return call(phonecall.Pull, random), phonecall.Message{}
	case 4:
		return call(phonecall.Pull, direct()), phonecall.Message{}
	case 5:
		return exchange(random, payload())
	case 6:
		return exchange(direct(), payload())
	case 7:
		// Out of model: charged as an attempted communication, transmits
		// nothing.
		return call(phonecall.Kind(200), random), phonecall.Message{}
	default:
		return exchange(random, phonecall.Message{})
	}
}

// responseFor derives node j's address-oblivious response for round r.
func responseFor(sc Script, r, j int) (phonecall.Message, bool) {
	h := rng.Mix(sc.ProtoSeed, tagResp, uint64(r), uint64(j))
	if h%4 == 0 {
		return phonecall.Message{}, false
	}
	return phonecall.Message{Value: h, Tag: uint8(h>>3) | 1, Rumor: h&2 == 0}, true
}

// applyChurn derives and applies round r's churn events to an engine. Called
// with the same arguments for both engines, so their membership and loss
// state evolve identically.
func applyChurn(e Engine, sc Script, r int) {
	h := rng.Mix(sc.ChurnSeed, tagChurn, uint64(r))
	pick := func(k int, salt uint64) []int {
		out := make([]int, 0, k)
		for t := 0; t < k; t++ {
			out = append(out, int(rng.BoundedUint64(uint64(e.N()), sc.ChurnSeed, salt, uint64(r), uint64(t))))
		}
		return out
	}
	switch h % 5 {
	case 1:
		e.Fail(pick(1+int(h>>8)%(e.N()/4+1), 0xfa)...)
	case 2:
		e.Revive(pick(1+int(h>>8)%(e.N()/4+1), 0x4e)...)
	case 3:
		e.SetLoss(float64((h>>8)%100)/100, h>>32)
	case 4:
		e.SetLoss(0, 0)
	}
}

// runScripted drives one scripted round on an engine and captures its full
// observable trace. Recording uses per-node slots (index-owned writes plus
// atomic counters), so it is race-free even when the engine invokes the
// callbacks from concurrent shards.
func runScripted(e Engine, sc Script, r int) *roundTrace {
	n := e.N()
	tr := &roundTrace{
		inboxes:   make([][]phonecall.Message, n),
		delivered: make([]int32, n),
		respSeen:  make([]int32, n),
		respMsg:   make([]phonecall.Message, n),
		respOK:    make([]bool, n),
	}
	responseOf := func(j int) (phonecall.Message, bool) {
		m, ok := responseFor(sc, r, j)
		if atomic.AddInt32(&tr.respSeen[j], 1) == 1 {
			tr.respMsg[j] = m
			tr.respOK[j] = ok
		}
		return m, ok
	}
	deliver := func(i int, inbox []phonecall.Message) {
		if atomic.AddInt32(&tr.delivered[i], 1) == 1 {
			// Copy out: the engine's inboxes alias its arena (and are
			// poisoned after return when the debug mode is on).
			cp := make([]phonecall.Message, len(inbox))
			copy(cp, inbox)
			tr.inboxes[i] = cp
		}
	}
	tr.report = e.ExecCalls(
		func(i int) phonecall.Call {
			c, _ := callFor(e, sc, r, i)
			return c
		},
		func(i int) phonecall.Message {
			_, m := callFor(e, sc, r, i)
			return m
		},
		responseOf, deliver,
	)
	return tr
}

// Compare runs the script through both engines in lockstep and returns a
// description of the first divergence (nil when the engines agree on every
// observable).
func Compare(a, b Engine, sc Script) error {
	sc = sc.normalized()
	if a.N() != b.N() {
		return fmt.Errorf("oracle: size mismatch: %d vs %d", a.N(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		if a.ID(i) != b.ID(i) {
			return fmt.Errorf("oracle: ID directory mismatch at node %d: %d vs %d", i, a.ID(i), b.ID(i))
		}
	}
	if sc.LossRate > 0 {
		a.SetLoss(sc.LossRate, sc.LossSeed)
		b.SetLoss(sc.LossRate, sc.LossSeed)
	}
	for r := 1; r <= sc.Rounds; r++ {
		if sc.Churn {
			applyChurn(a, sc, r)
			applyChurn(b, sc, r)
		}
		ta := runScripted(a, sc, r)
		tb := runScripted(b, sc, r)
		if err := compareRound(r, ta, tb); err != nil {
			return err
		}
		if la, lb := a.LiveCount(), b.LiveCount(); la != lb {
			return fmt.Errorf("oracle: round %d: live count %d vs %d", r, la, lb)
		}
	}
	ma, mb := a.Metrics(), b.Metrics()
	if !reflect.DeepEqual(ma, mb) {
		return fmt.Errorf("oracle: final metrics diverge:\n  engine: %+v\n  oracle: %+v", ma, mb)
	}
	return nil
}

// compareRound diffs the traces of one round; a is the engine under test, b
// the reference.
func compareRound(r int, a, b *roundTrace) error {
	if a.report != b.report {
		return fmt.Errorf("oracle: round %d: report %+v vs %+v", r, a.report, b.report)
	}
	for i := range a.delivered {
		if a.delivered[i] != b.delivered[i] {
			return fmt.Errorf("oracle: round %d node %d: delivered %d times vs %d",
				r, i, a.delivered[i], b.delivered[i])
		}
		if !reflect.DeepEqual(a.inboxes[i], b.inboxes[i]) {
			return fmt.Errorf("oracle: round %d node %d: inbox diverges:\n  engine: %+v\n  oracle: %+v",
				r, i, a.inboxes[i], b.inboxes[i])
		}
		if a.respSeen[i] != b.respSeen[i] {
			return fmt.Errorf("oracle: round %d node %d: responseOf invoked %d times vs %d",
				r, i, a.respSeen[i], b.respSeen[i])
		}
		if a.respSeen[i] > 0 && (a.respOK[i] != b.respOK[i] || !reflect.DeepEqual(a.respMsg[i], b.respMsg[i])) {
			return fmt.Errorf("oracle: round %d node %d: response evaluation diverges", r, i)
		}
	}
	return nil
}
