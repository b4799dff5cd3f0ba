// Package baseline implements the prior-work gossip algorithms the paper
// compares against: the classical uniform PUSH, PULL and PUSH-PULL protocols
// [Pittel 1987], the median-counter algorithm of Karp, Schindelhauer, Shenker
// and Vöcking [FOCS 2000], a direct-addressing address-book gossip standing
// in for Avin–Elsässer [DISC 2013], and the Name-Dropper resource-discovery
// protocol of Harchol-Balter, Leighton and Lewin [PODC 1999].
//
// All algorithms run on the same phone-call substrate as the paper's
// algorithms, so their round-, message- and bit-complexities are directly
// comparable.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/phonecall"
)

// ErrNoSource is returned when a broadcast is started without a live source.
var ErrNoSource = errors.New("baseline: broadcast needs at least one live source node")

// rumorState tracks which nodes hold the rumor. mark is invoked from the
// engine's delivery callbacks, which run on concurrent shards when the
// network uses multiple workers; node i's bit is only ever written by node
// i's own callback, atomically, so the state is race-free without shared
// counters. The live counts are computed by scanning between rounds
// (coordinator side), which keeps them correct when a scenario timeline
// crashes or revives nodes mid-execution — an incrementally maintained count
// would go stale the moment an informed node dies.
type rumorState struct {
	net      *phonecall.Network
	informed phonecall.NodeSet
}

func newRumorState(net *phonecall.Network, sources []int) (*rumorState, error) {
	st := &rumorState{net: net, informed: phonecall.NewNodeSet(net.N())}
	live := 0
	for _, s := range sources {
		if s < 0 || s >= net.N() {
			return nil, fmt.Errorf("baseline: source index %d out of range [0,%d)", s, net.N())
		}
		if !net.IsFailed(s) {
			live++
		}
		st.mark(s)
	}
	if live == 0 {
		return nil, ErrNoSource
	}
	return st, nil
}

func (s *rumorState) mark(i int) {
	if !s.informed.Has(i) {
		s.informed.Put(i, true)
	}
}

func (s *rumorState) has(i int) bool { return s.informed.Has(i) }

// liveInformed returns the number of live informed nodes. Coordinator-only:
// it reads the informed set and must not race with delivery callbacks.
func (s *rumorState) liveInformed() int {
	count := 0
	for k, w := range s.net.Live() {
		count += bits.OnesCount64(w & s.informed[k])
	}
	return count
}

func (s *rumorState) allInformed() bool { return s.liveInformed() >= s.net.LiveCount() }

// maxUniformRounds caps the self-terminating baselines at a small multiple of
// log n.
func maxUniformRounds(n int) int { return int(4*math.Log2(float64(n))) + 30 }
