package phonecall

// Peer-selection seam: a Network normally resolves random targets through
// the uniform stateless contract (RandomPeer / resolveRandom), but the
// resolution strategy is pluggable. A PeerSelector replaces the uniform
// draw with its own deterministic choice — internal/policy implements one
// that selects over a heterogeneous attribute topology under hard
// constraints and weighted scoring. The seam sits exactly where the uniform
// hash sat, so every engine that honors the model contracts (the sharded
// engine, the lock-step runtime, the free-running runtime, the reference
// oracle) inherits policy-aware selection without code changes of its own.

// PeerSelector chooses an initiator's random contact for a round.
//
// Implementations must be pure functions of (round, initiator) and their own
// immutable configuration while a round is executing — SelectPeer is invoked
// from concurrent engine shards, and results must not depend on evaluation
// order or worker count. ok=false means the selector admits no peer for this
// initiator: the engine charges the initiator for the attempted call and
// delivers nothing, exactly like a call to an unresolvable direct target.
type PeerSelector interface {
	SelectPeer(round, initiator int) (peer int, ok bool)
}

// SetPeerSelector installs a peer selector; nil restores the uniform
// contract. Must only be called between rounds. With no selector installed
// the engine's random-target path is byte-for-byte the pre-seam uniform
// fast path.
func (net *Network) SetPeerSelector(s PeerSelector) { net.selector = s }

// PeerSelector returns the installed selector (nil when random targets are
// uniform).
func (net *Network) PeerSelector() PeerSelector { return net.selector }

// RandomContact resolves initiator's random contact for a round: the
// installed selector's choice, or the uniform RandomPeer contract when no
// selector is installed. Pure and goroutine-safe like RandomPeer — this is
// the single entry point external executors (internal/live) use, so policy
// selection follows the Network to every engine.
func (net *Network) RandomContact(round, initiator int) (int, bool) {
	if net.selector != nil {
		return net.selector.SelectPeer(round, initiator)
	}
	return RandomPeer(net.n, net.cfg.Seed, round, initiator), true
}

// Contact resolves the target of initiator's call in round to a node index,
// or -1 when it resolves to nothing: a random target through RandomContact,
// a direct one through the ID directory, where NoNode, an unknown ID and the
// initiator's own resolve to nothing. Pure and goroutine-safe like
// RandomContact, for the engine, its seams and external executors.
func (net *Network) Contact(round, initiator int, t Target) int {
	j, ok := net.index.get(t.ID)
	if t.Random {
		j, ok = net.RandomContact(round, initiator)
	} else if j == initiator {
		ok = false
	}
	if !ok {
		return -1
	}
	return j
}
