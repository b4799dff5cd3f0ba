// Package live is the message-passing gossip runtime: every node is a
// goroutine running an event loop, and nodes communicate by exchanging
// encoded phone-call frames over a pluggable Transport instead of through the
// simulator's shared-memory round engine. It is the bridge from the paper
// reproduction to a deployable system — the same protocols, running as real
// concurrent processes.
//
// Two execution modes are provided:
//
//   - LockStep executes barrier-synchronized rounds over a synchronous
//     transport and plugs into phonecall.Network through the RoundExecutor
//     seam, so every closed algorithm in the repository (Cluster2,
//     ClusterPUSH-PULL, the baselines) runs on the live runtime unchanged.
//     Lock-step execution is bit-identical to the sharded engine — same round
//     reports, same inboxes, same metrics — and is conformance-gated against
//     the internal/oracle reference (TestLockStepMatchesOracle,
//     FuzzLockStepVsOracle).
//
//   - FreeRun drops the global barrier: each node advances its own round
//     clock, bounded-skew flow control keeps clocks within MaxSkew rounds of
//     the slowest live node, and a completion monitor on Run's own goroutine
//     detects convergence (every live node holding every injected rumor)
//     while scenario events (churn, loss, rumor injection) fire as the round
//     frontier passes them.
//
// Transports: NewChannelTransport builds an in-process mailbox mesh with
// deterministic, seeded per-link latency, jitter and drop injection;
// NewUDPTransport exchanges the same compact wire frames (codec.go) over UDP
// loopback sockets. See DESIGN.md §8 for the transport contract and the
// lock-step conformance argument.
package live

import "fmt"

// validateN bounds the node count for a transport mesh.
func validateN(n int) error {
	if n < 2 {
		return fmt.Errorf("live: need at least 2 nodes (got %d)", n)
	}
	return nil
}
