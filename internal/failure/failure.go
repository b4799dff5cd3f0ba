// Package failure implements the oblivious node-failure adversary of
// Section 8 of the paper: the adversary chooses F nodes to fail,
// independently of the algorithm's randomness. The paper's guarantee
// (Theorem 19) is that all but o(F) surviving nodes are still informed.
package failure

import (
	"math/bits"

	"repro/internal/phonecall"
	"repro/internal/rng"
)

// Random fails Count nodes chosen uniformly at random using a seed that is
// independent of the algorithm's execution seed (the oblivious-adversary
// requirement).
type Random struct {
	Count int
	Seed  uint64
}

// Select returns the indexes of the nodes to fail in a network of n nodes.
func (r Random) Select(n int) []int { return Pick(n, r.Count, rng.Mix(r.Seed, 0xfa11)) }

// Pick selects min(count, n) distinct node indexes of n uniformly at random:
// the prefix of a permutation drawn from seed alone, so the choice is
// oblivious to the execution.
func Pick(n, count int, seed uint64) []int {
	if count <= 0 || n <= 0 {
		return nil
	}
	perm := rng.New(seed).Perm(n)
	return append([]int(nil), perm[:min(count, n)]...)
}

// SurvivingSource returns a live source index, preferring preferred if it
// survived; ok is false when every node failed.
func SurvivingSource(net *phonecall.Network, preferred int) (int, bool) {
	if preferred >= 0 && preferred < net.N() && !net.IsFailed(preferred) {
		return preferred, true
	}
	for k, w := range net.Live() {
		if w != 0 {
			return k<<6 + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}
