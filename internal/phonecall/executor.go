package phonecall

import "repro/internal/rng"

// Execution seam: a Network normally runs its rounds on the built-in sharded
// engine (engine.go), but the round execution strategy is pluggable. An
// external RoundExecutor receives the exact per-node callbacks every
// protocol in this repository is written against and executes the round by
// whatever means it likes — internal/live implements one that runs every node
// as its own goroutine exchanging real messages over a transport. Everything
// the Network owns (membership, the ID directory, loss state, metrics, the
// OnRoundStart hook, the observer seam) keeps working unchanged, which is what
// lets the closed algorithms (Cluster2, ClusterPUSH-PULL, the baselines) run
// on a live message-passing runtime without touching their code.
//
// The model contracts an external executor must honor to stay bit-identical
// to the built-in engine are documented in DESIGN.md §7 (ID assignment,
// random targets, loss, inbox order) and exported below as RandomPeer and
// CallLost so executors share one implementation instead of re-deriving the
// hash shapes.

// RoundDelta is what an external executor accounts for one executed round.
// The Network merges it into its cumulative metrics exactly like the engine
// merges its per-worker stat shards.
type RoundDelta struct {
	// Messages counts payload-carrying messages (push payloads and pull
	// responses); Control counts pull requests; Bits their total size.
	Messages int64
	Control  int64
	Bits     int64
	// MaxComms is the round's Δ: the most communications any single live node
	// participated in.
	MaxComms int
}

// RoundExecutor executes one synchronous round on behalf of a Network.
//
// ExecNetworkRound is invoked by Network.ExecCalls after the round counter
// has advanced, the OnRoundStart hook has run and the behavior and observer
// wrappers have been applied; callOf and payloadOf are never nil (an empty
// round is handled before delegation). callers is the round's initiator set
// (nil: every live node), the corrupted nodes included, and no callback
// changes it during the round. The executor must uphold the engine's
// callback contract: the callbacks of node i may only be invoked with node
// i's own state in scope, callOf exactly once per live node in the set and
// never for a node outside it, payloadOf exactly once per Push or Exchange
// call — reached target or not,
// at any point after the node's callOf and before any deliver — responseOf
// at most once per live node that a live pull reached, deliver once per live
// node that received at least one message with the inbox ordered by
// initiator index (a puller's own response at its initiator position). An
// Exchange always carries its payload, content or not.
type RoundExecutor interface {
	ExecNetworkRound(
		net *Network,
		round int,
		callers NodeSet,
		callOf func(i int) Call,
		payloadOf func(i int) Message,
		responseOf func(i int) (Message, bool),
		deliver func(i int, inbox []Message),
	) RoundDelta
}

// SetExecutor installs an external round executor; nil restores the built-in
// sharded engine. Must only be called between rounds.
func (net *Network) SetExecutor(ex RoundExecutor) { net.executor = ex }

// Executor returns the installed external executor (nil when the built-in
// engine runs the rounds).
func (net *Network) Executor() RoundExecutor { return net.executor }

// PoisonInbox reports whether the inbox-poisoning debug mode is on, so
// external executors can honor the same copy-out contract the engine
// enforces (overwrite delivered inboxes with PoisonMessage after the
// delivery callback returns).
func (net *Network) PoisonInbox() bool { return net.cfg.PoisonInbox }

// runExternal delegates the round to the installed executor and merges its
// delta into the Network's metrics.
func (net *Network) runExternal(
	callers NodeSet,
	callOf func(i int) Call,
	payloadOf func(i int) Message,
	responseOf func(i int) (Message, bool),
	deliver func(i int, inbox []Message),
) RoundReport {
	d := net.executor.ExecNetworkRound(net, net.round, callers, callOf, payloadOf, responseOf, deliver)
	net.metrics.Messages += d.Messages
	net.metrics.ControlMessages += d.Control
	net.metrics.Bits += d.Bits
	if d.MaxComms > net.metrics.MaxCommsPerRound {
		net.metrics.MaxCommsPerRound = d.MaxComms
	}
	return RoundReport{
		Round:    net.round,
		Messages: d.Messages + d.Control,
		Bits:     d.Bits,
		MaxComms: d.MaxComms,
	}
}

// Derivation tags of the model's stateless hashes (DESIGN.md §7).
const (
	// randomTargetTag separates the random-contact stream.
	randomTargetTag = 0xc0ffee
	// lossTag separates the oblivious per-call drop stream.
	lossTag = 0x70ca1
)

// RandomPeer returns initiator's uniformly random contact for the round: the
// model's documented contract rng.BoundedUint64(n, seed, 0xc0ffee, round,
// initiator, attempt) with attempt incremented until the result differs from
// the initiator. It is a pure function, safe to evaluate from any goroutine,
// and bit-identical to the engine's cached-prefix fast path (locked in by
// TestRandomPeerMatchesEngine).
func RandomPeer(n int, seed uint64, round, initiator int) int {
	base := rng.MixPrefix(seed, randomTargetTag, uint64(round)).Absorb(uint64(initiator))
	for attempt := uint64(0); ; attempt++ {
		j := int(rng.Bounded(base.Absorb(attempt).Finalize(5), uint64(n)))
		if j != initiator {
			return j
		}
	}
}

// CallLost reports whether initiator's round-r call is dropped under the
// oblivious per-call loss process: the model's documented contract
// float64(rng.Mix(lossSeed, 0x70ca1, round, initiator) >> 11) / 2⁵³ < rate.
// Pure and goroutine-safe, bit-identical to the engine's cached-prefix path.
func CallLost(rate float64, lossSeed uint64, round, initiator int) bool {
	if rate <= 0 {
		return false
	}
	h := rng.Mix(lossSeed, lossTag, uint64(round), uint64(initiator))
	return rng.Unit(h) < rate
}
