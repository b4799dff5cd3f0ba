package phonecall

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// This file implements per-rumor informed tracking for dynamic, multi-rumor
// workloads (internal/scenario). Static single-rumor executions keep their
// own ad-hoc informed sets; the tracker exists for scenarios where nodes
// crash, rejoin uninformed, and several rumors spread concurrently, so that
// "how many live nodes hold rumor r" stays O(1) to query under churn.

// RumorID identifies one rumor in a multi-rumor workload. The tracker in
// this file handles the small dense range [0, MaxRumors); wider IDs belong to
// the scalable rumor-set layer (internal/rumorset), which this bitmask
// tracker is the small-set specialization of.
type RumorID uint32

// MaxRumors bounds the number of concurrently tracked rumors in the bitmask
// fast path: a node's holdings are one uint64 bitmask, which is also how
// protocols encode "all rumors I hold" in a single message value. Workloads
// with more (or sparser) rumor IDs run on internal/rumorset instead.
const MaxRumors = 64

// RumorTracker tracks which nodes hold which rumors and how many live nodes
// hold each, staying consistent across Fail/Revive churn.
//
// Concurrency contract (mirroring the engine's callback contract): Mark and
// MarkSet for node i may only be invoked from node i's own callbacks — the
// holdings word of a node is written only by its owner, while the live
// counters are atomic and may be bumped from any shard. Everything else
// (Register, Inject, Fail, Revive, LiveInformed, …) is coordinator-only and
// must run between rounds.
type RumorTracker struct {
	net  *Network
	held []uint64 // per node: bitmask of held rumors, written by the owner only
	live [MaxRumors]atomic.Int64
	// used is the bitmask of registered rumor IDs. Registration is
	// coordinator-only, but MarkSet reads the mask from node delivery
	// callbacks, so the word is atomic: a Register interleaved with a running
	// round (legal on the lock-step runtime, whose coordinator phases overlap
	// node goroutine teardown) must not race the mask reads.
	used atomic.Uint64
	// lost counts Inject calls that landed on a currently-failed node: the
	// held bit is set but a later Revive erases it (rejoin-uninformed), so
	// without this counter the event would be a silent no-op. Coordinator-only.
	lost int64
}

// NewRumorTracker returns an empty tracker for the network.
func NewRumorTracker(net *Network) *RumorTracker {
	return &RumorTracker{net: net, held: make([]uint64, net.n)}
}

// Register declares a rumor ID so that marks for it are counted. Registering
// an already-registered ID is a no-op. It returns an error for IDs outside
// [0, MaxRumors).
func (t *RumorTracker) Register(r RumorID) error {
	if r >= MaxRumors {
		return fmt.Errorf("phonecall: rumor id %d outside [0,%d)", r, MaxRumors)
	}
	t.used.Or(1 << r)
	return nil
}

// Registered returns the bitmask of registered rumor IDs.
func (t *RumorTracker) Registered() uint64 { return t.used.Load() }

// Inject registers the rumor and marks the node as holding it (the scenario
// InjectRumor event). Injecting at a currently-failed node still sets the
// held bit (the node knows the rumor until it is restarted) but counts as a
// lost inject, because a Revive erases the bit again. Coordinator-only.
func (t *RumorTracker) Inject(node int, r RumorID) error {
	if node < 0 || node >= t.net.n {
		return fmt.Errorf("phonecall: inject node %d outside [0,%d)", node, t.net.n)
	}
	if err := t.Register(r); err != nil {
		return err
	}
	if t.net.IsFailed(node) {
		t.lost++
	}
	t.Mark(node, r)
	return nil
}

// LostInjects returns the number of Inject calls that landed on a node that
// was failed at injection time — rumors a rejoin-uninformed Revive silently
// forgets. Coordinator-only, like Inject.
func (t *RumorTracker) LostInjects() int64 { return t.lost }

// Mark records that the node holds the rumor. Idempotent; unregistered rumors
// are ignored. Callable from node's own delivery callback.
func (t *RumorTracker) Mark(node int, r RumorID) {
	t.MarkSet(node, 1<<r)
}

// MarkSet records that the node holds every rumor in the bitmask (as decoded
// from a received message). Unregistered bits are ignored. Callable from
// node's own delivery callback.
func (t *RumorTracker) MarkSet(node int, set uint64) {
	set &= t.used.Load()
	fresh := set &^ t.held[node]
	if fresh == 0 {
		return
	}
	t.held[node] |= fresh
	if t.net.IsFailed(node) {
		return
	}
	for fresh != 0 {
		r := bits.TrailingZeros64(fresh)
		fresh &= fresh - 1
		t.live[r].Add(1)
	}
}

// Held returns the bitmask of rumors the node holds.
func (t *RumorTracker) Held(node int) uint64 { return t.held[node] }

// Has reports whether the node holds the rumor.
func (t *RumorTracker) Has(node int, r RumorID) bool { return t.held[node]&(1<<r) != 0 }

// LiveInformed returns the number of live nodes currently holding the rumor.
func (t *RumorTracker) LiveInformed(r RumorID) int {
	if r >= MaxRumors {
		return 0
	}
	return int(t.live[r].Load())
}

// Fail fails the nodes on the underlying network, keeping the live-informed
// counters consistent: an informed node that crashes no longer counts.
// Already-failed and out-of-range indexes are ignored. Coordinator-only.
func (t *RumorTracker) Fail(nodes ...int) {
	for _, i := range nodes {
		if i < 0 || i >= t.net.n || t.net.IsFailed(i) {
			continue
		}
		t.net.Fail(i)
		t.adjust(i, -1)
	}
}

// Revive revives the nodes on the underlying network into the uninformed
// state: a rejoining node forgets every rumor it held (the scenario JoinAt
// semantics — late-started or restarted nodes begin empty). Live and
// out-of-range indexes are ignored. Coordinator-only.
func (t *RumorTracker) Revive(nodes ...int) {
	for _, i := range nodes {
		if i < 0 || i >= t.net.n || !t.net.IsFailed(i) {
			continue
		}
		t.net.Revive(i)
		t.held[i] = 0
	}
}

// adjust adds delta to the live counter of every rumor the node holds.
func (t *RumorTracker) adjust(node int, delta int64) {
	set := t.held[node]
	for set != 0 {
		r := bits.TrailingZeros64(set)
		set &= set - 1
		t.live[r].Add(delta)
	}
}
