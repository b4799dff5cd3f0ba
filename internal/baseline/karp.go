package baseline

import (
	"math"

	"repro/internal/phonecall"
	"repro/internal/trace"
)

// karpState enumerates the node states of the median-counter algorithm.
type karpState uint8

const (
	karpUninformed karpState = iota + 1
	karpCounting             // state B: transmits, increments its counter by the median rule
	karpCoolDown             // state C: transmits for O(log log n) more rounds
	karpDone                 // state D: informed but no longer transmits
)

// MedianCounter runs the median-counter rumor spreading algorithm of Karp,
// Schindelhauer, Shenker and Vöcking [FOCS 2000, reference 10 of the paper].
// Every node calls a uniformly random node each round and the rumor (with the
// sender's counter attached) travels in both directions over the call. A node
// stops transmitting O(log log n) rounds after its counter saturates, which
// bounds the number of rumor transmissions by O(n log log n) while the round
// complexity stays Θ(log n).
func MedianCounter(net *phonecall.Network, sources []int) (trace.Result, error) {
	st, err := newRumorState(net, sources)
	if err != nil {
		return trace.Result{}, err
	}
	n := net.N()
	ctrMax := int(math.Ceil(math.Log2(math.Log2(float64(n)+2)))) + 2
	coolRounds := ctrMax

	state := make([]karpState, n)
	counter := make([]int, n)
	cool := make([]int, n)
	for i := range state {
		state[i] = karpUninformed
	}
	for _, s := range sources {
		state[s] = karpCounting
		counter[s] = 1
	}

	transmitting := func(i int) bool { return state[i] == karpCounting || state[i] == karpCoolDown }
	anyTransmitting := func() bool {
		for i := 0; i < n; i++ {
			if !net.IsFailed(i) && transmitting(i) {
				return true
			}
		}
		return false
	}

	rec := trace.NewRecorder(net)
	maxRounds := maxUniformRounds(n)
	completion := 0
	for round := 0; round < maxRounds && (!st.allInformed() || anyTransmitting()); round++ {
		// Fallback for finite-n robustness: if every informed node already
		// stopped transmitting but uninformed nodes remain, done nodes answer
		// pulls again (this never triggers at the calibrated constants for the
		// sizes used in the experiments, but guarantees termination).
		reviveDone := !anyTransmitting()

		net.ExecCalls(
			func(i int) phonecall.Call {
				switch {
				case transmitting(i):
					return phonecall.Call{Kind: phonecall.Exchange, Target: phonecall.RandomTarget()}
				case state[i] == karpUninformed:
					return phonecall.Call{Kind: phonecall.Pull, Target: phonecall.RandomTarget()}
				default:
					return phonecall.Call{}
				}
			},
			func(i int) phonecall.Message {
				return phonecall.Message{Tag: tagRumor, Rumor: true, Value: uint64(counter[i])}
			},
			func(j int) (phonecall.Message, bool) {
				if transmitting(j) || (reviveDone && state[j] == karpDone) {
					return phonecall.Message{Tag: tagRumor, Rumor: true, Value: uint64(counter[j])}, true
				}
				if state[j] == karpDone {
					// Done nodes no longer transmit the rumor but still reveal
					// their (saturated) counter so partners can advance theirs.
					return phonecall.Message{Tag: tagStatus, Value: uint64(ctrMax)}, true
				}
				return phonecall.Message{}, false
			},
			func(i int, inbox []phonecall.Message) {
				// Count the informed communication partners and, in the same
				// pass, those whose counter is at least ours (counter[i] only
				// changes after the loop).
				partners, atLeast, gotRumor := 0, 0, false
				for _, m := range inbox {
					if m.Rumor || m.Tag == tagStatus {
						partners++
						if int(m.Value) >= counter[i] {
							atLeast++
						}
					}
					gotRumor = gotRumor || m.Rumor
				}
				if partners == 0 {
					return
				}
				switch state[i] {
				case karpUninformed:
					if !gotRumor {
						return
					}
					st.mark(i)
					state[i] = karpCounting
					counter[i] = 1
				case karpCounting:
					// Median rule: if at least half of the informed partners
					// report a counter at least as large as ours, increment.
					if 2*atLeast >= partners {
						counter[i]++
					}
					if counter[i] >= ctrMax {
						state[i] = karpCoolDown
						cool[i] = coolRounds
					}
				case karpCoolDown, karpDone:
					// Cool-down progression is handled uniformly after the round.
				}
			},
		)
		// Cool-down also elapses for nodes that received nothing this round.
		for i := 0; i < n; i++ {
			if state[i] == karpCoolDown {
				cool[i]--
				if cool[i] <= 0 {
					state[i] = karpDone
				}
			}
		}
		if completion == 0 && st.allInformed() {
			completion = net.Metrics().Rounds
		}
	}
	rec.Mark("median-counter")
	res := trace.Summarize("karp-median-counter", net, st.liveInformed(), rec.Phases())
	if completion > 0 {
		res.CompletionRound = completion
	}
	return res, nil
}
