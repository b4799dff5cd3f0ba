// Package phonecall implements the random phone call model with direct
// addressing used by Haeupler and Malkhi (PODC 2014).
//
// The model (Section 2 of the paper): a complete network of n nodes with
// unique IDs drawn from a polynomially large ID space. Time advances in
// synchronous rounds. In every round each live node may initiate at most one
// communication: it either PUSHes a message to a target or PULLs a message
// from a target, where the target is a uniformly random node or a node whose
// ID the initiator learned earlier (direct addressing). Responses to PULLs
// are address-oblivious: a node exposes a single response per round that is
// handed to every puller.
//
// The Network type is the simulation substrate: it resolves contacts,
// delivers inboxes, injects failures, and accounts rounds, messages, bits and
// the per-round number of communications each node participates in (the
// quantity the paper calls Δ). Protocols are written as per-node callbacks;
// a node's decisions may only depend on its own state and its inbox.
package phonecall

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/rng"
)

// NodeID is a node address from the polynomially large ID space. The zero
// value means "no node" (the paper's follow = ∞).
type NodeID uint64

// NoNode is the absent-node sentinel.
const NoNode NodeID = 0

// Kind describes the communication a node initiates in a round.
type Kind uint8

// Communication kinds. A node that stays silent uses None. Exchange models
// the classical random phone call in which the caller both PUSHes its message
// and PULLs the callee's response over the same connection; it is used by the
// baseline algorithms (uniform PUSH-PULL, Karp et al.), not by the clustering
// algorithms of the paper.
const (
	None Kind = iota
	Push
	Pull
	Exchange
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Push:
		return "push"
	case Pull:
		return "pull"
	case Exchange:
		return "exchange"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Target identifies whom a node contacts: either a uniformly random node or a
// specific node by ID (direct addressing).
type Target struct {
	Random bool
	ID     NodeID
}

// RandomTarget returns a target that the engine resolves to a uniformly
// random other node.
func RandomTarget() Target { return Target{Random: true} }

// DirectTarget returns a direct-addressing target.
func DirectTarget(id NodeID) Target { return Target{ID: id} }

// Message is the unit of communication. Its size in bits is derived from its
// content unless Bits is set explicitly. The field order groups the two
// single-byte fields so the struct stays at 56 bytes; the inbox arena holds
// one per delivered message, so its size is hot.
type Message struct {
	// From is filled in by the engine with the sender's ID.
	From NodeID
	// Value carries a counter, size, or coin flip (O(log n) bits).
	Value uint64
	// IDs carries node IDs (each O(log n) bits).
	IDs []NodeID
	// Bits overrides the computed size when non-zero.
	Bits int
	// Tag is a protocol-defined discriminator.
	Tag uint8
	// Rumor marks that the message carries the b-bit broadcast payload.
	Rumor bool
}

// Call is a node's initiated communication for one round: what it does and
// to whom. It is the form Network.ExecCalls evaluates for every live node,
// so a silent node costs a 24-byte return value. The payload of a Push or
// Exchange call is asked for separately, and an Exchange always carries it:
// a node with nothing to push calls Pull.
type Call struct {
	Kind   Kind
	Target Target
}

// HasContent reports whether the message carries any information (and hence
// is transmitted and charged at all).
func (m Message) HasContent() bool {
	return m.Tag != 0 || m.Rumor || m.Value != 0 || len(m.IDs) > 0 || m.Bits > 0
}

// Config configures a Network.
type Config struct {
	// N is the number of nodes. Required.
	N int
	// Seed drives all randomness of the execution.
	Seed uint64
	// PayloadBits is b, the rumor size in bits. Defaults to DefaultPayloadBits.
	PayloadBits int
	// Workers is the number of engine shards (goroutines) used per round.
	// Values <= 1 mean sequential execution; small networks always run on a
	// single shard. Results are bit-identical for any worker count.
	Workers int
	// PoisonInbox is a debug mode that overwrites each node's inbox span in
	// the message arena with poison values as soon as its delivery callback
	// returns. Inbox slices alias the arena and are only valid during the
	// callback; with poisoning on, a callback that illegally retains its
	// inbox reads PoisonMessage values instead of silently stale (and later
	// silently recycled) data. Compliant protocols produce bit-identical
	// results with poisoning on or off.
	PoisonInbox bool
}

// DefaultPayloadBits is the default rumor size (b = 256 bits ≈ Ω(log n)).
const DefaultPayloadBits = 256

// Metrics aggregates the complexity measures of an execution.
type Metrics struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Messages counts payload-carrying messages (push payloads and pull
	// responses).
	Messages int64
	// ControlMessages counts pull requests.
	ControlMessages int64
	// Bits is the total number of bits across all messages, including pull
	// requests.
	Bits int64
	// MaxCommsPerRound is the maximum number of communications any single node
	// participated in during any single round (the paper's Δ). Only live
	// participants are charged: a call to a failed node is dropped and does
	// not count as a communication of the dead target.
	MaxCommsPerRound int
}

// TotalMessages returns payload plus control messages.
func (m Metrics) TotalMessages() int64 { return m.Messages + m.ControlMessages }

// RoundReport summarizes a single round.
type RoundReport struct {
	Round    int
	Messages int64
	Bits     int64
	MaxComms int
}

// Network is the synchronous random phone call simulator.
type Network struct {
	cfg   Config
	n     int
	ids   []NodeID
	index *idTable
	// live holds the nodes that have not failed, and liveCount its size.
	// Fail and Revive are their only writers, with atomic operations, so
	// the free-running runtime's monitor may flip bits while its node
	// goroutines read them; the count moves after a fail clears its bit and
	// before a revive sets one, so it never reads below the set's size. The
	// engine's passes read live's words between those writes.
	live        NodeSet
	liveCount   atomic.Int64
	nodeRNG     []rng.Source
	idBits      int
	counterBits int
	tagBits     int
	round       int

	metrics Metrics

	// Sharded round engine state (see engine.go). All buffers are sized once
	// at New and reused across rounds; steady-state rounds do not allocate.
	nw        int          // effective shard count
	spans     [][2]int     // node index range [lo,hi) per shard
	cells     [][]destCell // per-shard destination accounting
	wstats    []workerStats
	rangeBase []int32 // arena base offset per shard's node range
	ops       []op
	tgt       []int32
	// resps is, per shard, the responses of the shard's pulled nodes this
	// round, and respIdx a pulled node's index into its shard's list
	// (noResponse: it gave none). The lists grow only at a new maximum.
	resps       [][]Message
	respIdx     []int32
	chunkBlocks int           // 64-node blocks per shard span: node d is in shard (d>>6)/chunkBlocks
	fillBuf     [][64]Message // per shard: one block's payloads, asked for before they are placed
	inCount     []int32
	inOff       []int32
	slab        []Message // the inbox arena: one flat span per receiving node
	pool        *pool
	noPulls     bool // this round has no live pulls (fast path)
	// touched holds, per shard, one bit per node: the destination cells the
	// shard wrote this round. Only those are merged, delivered and cleared.
	touched [][]uint64
	// blockBase is the arena base offset of each 64-node block's shard,
	// refreshed every round (spans are whole blocks).
	blockBase []int32

	// roundMix caches the hash prefix (seed, tag, round) of the stateless
	// random-target hash; refreshed at the start of each round.
	roundMix      rng.MixState
	roundMixRound int

	// Oblivious per-call loss (SetLoss). lossMix caches the (lossSeed, tag,
	// round) hash prefix of the stateless drop decision, like roundMix.
	lossRate     float64
	lossSeed     uint64
	lossMix      rng.MixState
	lossMixRound int

	// roundHook, when set, runs at the start of every round before any call
	// is evaluated (OnRoundStart).
	roundHook func(round int)

	// ctx, when set, aborts the next round once done (SetContext /
	// RecoverAbort, see context.go).
	ctx context.Context

	// observer, when set, sees every round open and close (Observe);
	// callObserver is the same observer when it also taps the round's
	// callback traffic.
	observer     RoundObserver
	callObserver CallObserver

	// executor, when set, runs rounds instead of the built-in engine
	// (SetExecutor; see executor.go).
	executor RoundExecutor

	// selector, when set, replaces the uniform random-target contract
	// (SetPeerSelector; see peersel.go).
	selector PeerSelector

	// behaviors, when allocated, holds the per-node Byzantine behaviors
	// (SetBehavior; see behavior.go). nil until the first behavior is
	// installed, so honest runs skip the seam entirely. corrupted counts
	// the non-nil entries.
	behaviors []Behavior
	corrupted int

	// rewrites holds, per corrupted node, the payload its behavior rewrote
	// when the node's call was evaluated; made with behaviors.
	rewrites []Message

	// corruptSet holds the nodes with a behavior installed, and evalSet is
	// a round's initiator set with them added; both are made with
	// behaviors.
	corruptSet NodeSet
	evalSet    NodeSet

	// Per-round initiator set and callbacks, published to the pool workers
	// through the pass channel's happens-before edge.
	curSet      NodeSet
	curCall     func(i int) Call
	curPayload  func(i int) Message
	curResponse func(i int) (Message, bool)
	curDeliver  func(i int, inbox []Message)

	// intents is ExecRound's adapter state (intent.go), made on its first
	// round.
	intents *intentRound
}

// Validation errors returned by New.
var (
	ErrBadSize = errors.New("phonecall: network needs at least 2 nodes")
	ErrTooBig  = errors.New("phonecall: network exceeds the engine's 2^30 node limit")
)

// New creates a network of cfg.N nodes with unique random IDs.
func New(cfg Config) (*Network, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("%w (got %d)", ErrBadSize, cfg.N)
	}
	if cfg.N >= 1<<30 {
		// The engine stores targets and arena offsets as int32; an inbox
		// arena holds at most 2 messages per node, so 2N must stay below
		// 2^31.
		return nil, fmt.Errorf("%w (got %d)", ErrTooBig, cfg.N)
	}
	if cfg.PayloadBits <= 0 {
		cfg.PayloadBits = DefaultPayloadBits
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}

	logN := bits.Len(uint(cfg.N))
	net := &Network{
		cfg:         cfg,
		n:           cfg.N,
		ids:         make([]NodeID, cfg.N),
		index:       newIDTable(cfg.N),
		live:        NewNodeSet(cfg.N),
		nodeRNG:     make([]rng.Source, cfg.N),
		idBits:      max(16, 2*logN),
		counterBits: logN + 1,
		tagBits:     8,
	}

	for k := range net.live {
		net.live[k] = ^uint64(0)
	}
	if r := cfg.N & 63; r != 0 {
		net.live[len(net.live)-1] = 1<<r - 1
	}
	net.liveCount.Store(int64(cfg.N))
	net.initEngine(cfg.Workers)
	net.assignIDs()
	for i := range net.nodeRNG {
		net.nodeRNG[i].Reseed(rng.Mix(cfg.Seed, 0xa11ce, uint64(i)))
	}
	return net, nil
}

// idSource is the stream node IDs are drawn from, in node order.
func idSource(seed uint64) *rng.Source { return rng.New(rng.Mix(seed, 0x1d5)) }

// drawID maps one draw of the ID stream into the non-zero 63-bit space.
func drawID(src *rng.Source) NodeID { return NodeID(src.Uint64()>>1) + 1 }

// assignIDs gives node i the i-th draw of the ID stream and indexes the
// draws (indexIDs).
func (net *Network) assignIDs() {
	src := idSource(net.cfg.Seed)
	for i := range net.ids {
		net.ids[i] = drawID(src)
	}
	net.indexIDs()
}

// indexIDs builds the ID index in one sweep, with the engine's n-sized
// target array as the sort's scratch (every round rewrites it). Two equal
// draws among n (probability ≈ n²/2⁶⁴) make it start over with
// assignIDsInOrder, so the directory is the same for every seed either way.
func (net *Network) indexIDs() {
	if !net.index.putAll(net.ids, net.tgt) {
		net.assignIDsInOrder()
	}
}

// assignIDsInOrder is the ID assignment by its definition (DESIGN.md §7):
// node by node, a draw equal to an earlier node's ID is discarded and the
// next one tried.
func (net *Network) assignIDsInOrder() {
	clear(net.index.keys)
	src := idSource(net.cfg.Seed)
	for i := range net.ids {
		id := drawID(src)
		for !net.index.put(id, i) {
			id = drawID(src)
		}
		net.ids[i] = id
	}
}

// N returns the number of nodes (including failed ones).
func (net *Network) N() int { return net.n }

// LiveCount returns the number of non-failed nodes.
func (net *Network) LiveCount() int { return int(net.liveCount.Load()) }

// Live returns the set of non-failed nodes (local). It is the network's own
// set, which Fail and Revive change; no bit at or past N is ever set, so a
// word operation with it also clips a set to the network.
func (net *Network) Live() NodeSet { return net.live }

// Seed returns the execution seed.
func (net *Network) Seed() uint64 { return net.cfg.Seed }

// PayloadBits returns b, the rumor size in bits.
func (net *Network) PayloadBits() int { return net.cfg.PayloadBits }

// IDBits returns the number of bits used to encode one node ID.
func (net *Network) IDBits() int { return net.idBits }

// ID returns the ID of the node with the given index.
func (net *Network) ID(i int) NodeID { return net.ids[i] }

// IndexOf returns the index of a node ID.
func (net *Network) IndexOf(id NodeID) (int, bool) {
	return net.index.get(id)
}

// Workers returns the effective number of engine shards.
func (net *Network) Workers() int { return net.nw }

// NodeRNG returns the per-node random stream for local coin flips. The stream
// is independent of the streams of other nodes and of the engine's contact
// resolution.
func (net *Network) NodeRNG(i int) *rng.Source { return &net.nodeRNG[i] }

// Fail marks the given node indexes as failed. Failed nodes never initiate,
// never respond, and drop messages addressed to them. The paper's oblivious
// adversary (Section 8) fails nodes before the protocol starts; dynamic
// scenarios (internal/scenario) may also call Fail between rounds — a node
// failed after round r is dead from round r+1 on: its next-round call is
// never evaluated and calls addressed to it are dropped without charging it.
// Out-of-range and already-failed indexes are ignored, so duplicate indexes
// decrement the live count only once. Must not be called while a round is
// executing (use an OnRoundStart hook to inject failures between rounds).
func (net *Network) Fail(indexes ...int) {
	for _, i := range indexes {
		if i >= 0 && i < net.n && net.live.Has(i) {
			net.live.Put(i, false)
			net.liveCount.Add(-1)
		}
	}
}

// Revive marks the given failed node indexes as live again. A revived node
// rejoins the network with whatever protocol state it had — dynamic scenarios
// that model rejoin-as-uninformed reset the protocol state separately (see
// RumorTracker.Revive). Out-of-range and live indexes are ignored. Like Fail,
// Revive must only be called between rounds.
func (net *Network) Revive(indexes ...int) {
	for _, i := range indexes {
		if i >= 0 && i < net.n && !net.live.Has(i) {
			net.liveCount.Add(1)
			net.live.Put(i, true)
		}
	}
}

// IsFailed reports whether node i is failed.
func (net *Network) IsFailed(i int) bool { return !net.live.Has(i) }

// SetLoss configures oblivious per-call message loss: from the next round on,
// every initiated call is independently dropped with probability rate. A
// dropped call behaves exactly like a call to a failed node (the
// live-participant rule of DESIGN.md §2): the initiator is still charged for
// what it sent, the target never participates — it receives nothing, is not
// charged a communication, and a pull gets no response.
//
// Drops are a stateless hash of (lossSeed, round, initiator), independent of
// the execution seed (the loss process is oblivious to the algorithm's
// randomness) and of the worker count. rate is clamped to [0, 1]; rate 0
// disables loss. Must only be called between rounds.
func (net *Network) SetLoss(rate float64, seed uint64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	net.lossRate = rate
	net.lossSeed = seed
	net.lossMixRound = -1
}

// LossRate returns the per-call drop probability currently in effect.
func (net *Network) LossRate() float64 { return net.lossRate }

// OnRoundStart registers a hook invoked at the start of every round, after
// the round counter advances and before any call is evaluated. The hook runs on the
// coordinator goroutine, so it may safely mutate network state that is
// read-only during passes: Fail, Revive and SetLoss. This is the seam the
// scenario subsystem uses to drive timed churn and loss under any protocol
// without changing the per-node callback contract. A nil hook unregisters.
func (net *Network) OnRoundStart(hook func(round int)) { net.roundHook = hook }

// Round returns the number of rounds executed so far.
func (net *Network) Round() int { return net.round }

// Metrics returns the accumulated metrics.
func (net *Network) Metrics() Metrics {
	m := net.metrics
	m.Rounds = net.round
	return m
}

// MessageSize returns the size in bits of a message under the paper's
// accounting: O(log n) bits for tags/counters/IDs plus the b-bit rumor when
// carried.
func (net *Network) MessageSize(m Message) int { return net.messageSize(&m) }

// messageSize is MessageSize through a pointer, so the passes size a message
// in its arena slot.
func (net *Network) messageSize(m *Message) int {
	if m.Bits > 0 {
		return m.Bits
	}
	size := net.tagBits + net.counterBits + len(m.IDs)*net.idBits
	if m.Rumor {
		size += net.cfg.PayloadBits
	}
	return size
}

// controlSize is the size of a pull request.
func (net *Network) controlSize() int { return net.tagBits + net.idBits }

// refreshRoundMix re-derives the cached random-target hash prefix for the
// current round. Single-goroutine (coordinator or test) only: the engine
// passes merely read the cached state.
func (net *Network) refreshRoundMix() {
	if net.roundMixRound != net.round {
		net.roundMix = rng.MixPrefix(net.cfg.Seed, randomTargetTag, uint64(net.round))
		net.roundMixRound = net.round
	}
}

// resolveRandom resolves a uniformly random target for the initiator with a
// stateless hash of (seed, round, initiator), so that results do not depend
// on iteration order or worker count. The output is bit-identical to
// rng.BoundedUint64(n, seed, 0xc0ffee, round, initiator, attempt).
func (net *Network) resolveRandom(initiator int) int {
	base := net.roundMix.Absorb(uint64(initiator))
	for attempt := uint64(0); ; attempt++ {
		j := int(rng.Bounded(base.Absorb(attempt).Finalize(5), uint64(net.n)))
		if j != initiator {
			return j
		}
	}
}

// refreshLossMix re-derives the cached drop-decision hash prefix for the
// current round. Coordinator-only, like refreshRoundMix.
func (net *Network) refreshLossMix() {
	if net.lossMixRound != net.round {
		net.lossMix = rng.MixPrefix(net.lossSeed, lossTag, uint64(net.round))
		net.lossMixRound = net.round
	}
}

// dropCall reports whether the initiator's call this round is lost. The
// decision is a stateless hash of (lossSeed, round, initiator) compared
// against the loss rate with Float64 precision, so it is bit-identical for
// any worker count and evaluation order. Only called when lossRate > 0.
func (net *Network) dropCall(initiator int) bool {
	h := net.lossMix.Absorb(uint64(initiator)).Finalize(4)
	return rng.Unit(h) < net.lossRate
}
