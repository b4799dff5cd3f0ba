// Package failure implements the oblivious node-failure adversaries of
// Section 8 of the paper: an adversary chooses F nodes to fail before the
// execution starts, independently of the algorithm's randomness. The paper's
// guarantee (Theorem 19) is that all but o(F) surviving nodes are still
// informed.
package failure

import (
	"fmt"

	"repro/internal/phonecall"
	"repro/internal/rng"
)

// Adversary selects which node indexes fail at the start of an execution.
type Adversary interface {
	// Select returns the indexes of the nodes to fail in a network of n nodes.
	Select(n int) []int
	// Name identifies the adversary in experiment tables.
	Name() string
}

// Random fails Count nodes chosen uniformly at random using a seed that is
// independent of the algorithm's execution seed (the oblivious-adversary
// requirement).
type Random struct {
	Count int
	Seed  uint64
}

// Name implements Adversary.
func (r Random) Name() string { return "random" }

// Select implements Adversary.
func (r Random) Select(n int) []int {
	if r.Count <= 0 || n <= 0 {
		return nil
	}
	count := r.Count
	if count > n {
		count = n
	}
	perm := rng.New(rng.Mix(r.Seed, 0xfa11)).Perm(n)
	return append([]int(nil), perm[:count]...)
}

// Block fails the Count nodes with the lowest indexes. Because node indexes
// are assigned independently of node IDs and of the algorithm's randomness,
// this is also an oblivious adversary.
type Block struct {
	Count int
}

// Name implements Adversary.
func (b Block) Name() string { return "block" }

// Select implements Adversary.
func (b Block) Select(n int) []int {
	count := b.Count
	if count <= 0 || n <= 0 {
		return nil
	}
	if count > n {
		count = n
	}
	out := make([]int, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, i)
	}
	return out
}

// Strided fails every Stride-th node until Count nodes are chosen.
type Strided struct {
	Count  int
	Stride int
}

// Name implements Adversary.
func (s Strided) Name() string { return "strided" }

// Select implements Adversary.
func (s Strided) Select(n int) []int {
	if n <= 0 || s.Count <= 0 {
		return nil
	}
	stride := s.Stride
	if stride < 1 {
		stride = 1
	}
	count := s.Count
	if count > n {
		count = n
	}
	seen := make(map[int]bool, count)
	out := make([]int, 0, count)
	for i := 0; i < n && len(out) < count; i++ {
		idx := (i * stride) % n
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	// When stride and n share a factor the stride orbit covers only n/gcd
	// indexes; fill the remainder with the lowest unused indexes.
	for i := 0; i < n && len(out) < count; i++ {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// Timed pairs an oblivious adversary with the round at which it strikes,
// turning any start-time adversary into a timed crash wave: the selection is
// still made obliviously (before the execution, independent of the
// algorithm's randomness), only its injection is deferred. The scenario
// subsystem converts it into a CrashAt timeline event (scenario.FromTimed).
//
// Timed deliberately does NOT implement Adversary: a timed wave handed to a
// start-time seam (failure.Apply) would strike
// before round 0 and silently ignore Round — making that mistake a compile
// error is the guard.
type Timed struct {
	// Round is the 1-based engine round at the start of which the selected
	// nodes crash; values <= 1 strike before any communication.
	Round     int
	Adversary Adversary
}

// Name identifies the timed wave in experiment tables.
func (t Timed) Name() string { return fmt.Sprintf("%s@r%d", t.Adversary.Name(), t.Round) }

// Apply fails the adversary's selection on the network and returns the failed
// indexes.
func Apply(net *phonecall.Network, adv Adversary) []int {
	selected := adv.Select(net.N())
	net.Fail(selected...)
	return selected
}

// SurvivingSource returns a live source index, preferring preferred if it
// survived; ok is false when every node failed.
func SurvivingSource(net *phonecall.Network, preferred int) (int, bool) {
	if preferred >= 0 && preferred < net.N() && !net.IsFailed(preferred) {
		return preferred, true
	}
	for i := 0; i < net.N(); i++ {
		if !net.IsFailed(i) {
			return i, true
		}
	}
	return 0, false
}
