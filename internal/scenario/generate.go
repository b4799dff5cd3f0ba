package scenario

import (
	"repro/internal/failure"
	"repro/internal/rng"
)

// Timeline generators: helpers that produce common churn shapes as event
// slices. All selections are oblivious — driven by their own seeds,
// independent of the execution seed — and deterministic, so generated
// scenarios inherit the package's reproducibility contract. Generators
// compose: concatenate their outputs (plus Loss and InjectRumor events) and
// hand the lot to Scenario.Events; the driver stably sorts by round.

// PeriodicChurn emits steady membership churn: every period rounds starting
// at start, a fresh batch of count random nodes crashes, and each batch
// rejoins (uninformed) downFor rounds after it crashed. Batches are drawn
// independently, so they may overlap — crashing a dead node and joining a
// live one are no-ops, which keeps overlaps harmless. Events past horizon
// are not emitted.
func PeriodicChurn(n, start, period, count, downFor, horizon int, seed uint64) []Event {
	if period < 1 {
		period = 1
	}
	var out []Event
	for k, at := 0, start; at <= horizon; k, at = k+1, at+period {
		batch := failure.Pick(n, count, rng.Mix(seed, 0xc4a12, uint64(k)))
		if len(batch) == 0 {
			break
		}
		out = append(out, CrashAt{At: at, Nodes: batch})
		if rejoin := at + downFor; downFor > 0 && rejoin <= horizon {
			out = append(out, JoinAt{At: rejoin, Nodes: batch})
		}
	}
	return out
}

// Flap makes one node set oscillate between dead and alive: down at start,
// back up downFor rounds later, down again after a further upFor rounds, and
// so on until horizon. Flapping members model the restart loops and
// partition flapping that membership layers (Serf-style) must survive.
func Flap(nodes []int, start, downFor, upFor, horizon int) []Event {
	if downFor < 1 {
		downFor = 1
	}
	if upFor < 1 {
		upFor = 1
	}
	var out []Event
	for at := start; at <= horizon; at += downFor + upFor {
		out = append(out, CrashAt{At: at, Nodes: nodes})
		if rejoin := at + downFor; rejoin <= horizon {
			out = append(out, JoinAt{At: rejoin, Nodes: nodes})
		}
	}
	return out
}

// Waves emits escalating crash waves with no rejoin: wave k (k = 0, 1, …)
// fails round(count·growth^k) random nodes at start + k·gap. It is the
// timed generalization of the paper's Section 8 one-shot adversary and the
// shape used to probe the o(F) fault-tolerance claim under increasing
// pressure.
func Waves(n, start, gap, waves, count int, growth float64, seed uint64) []Event {
	if gap < 1 {
		gap = 1
	}
	var out []Event
	size := float64(count)
	for k := 0; k < waves; k++ {
		batch := failure.Pick(n, int(size+0.5), rng.Mix(seed, 0x3a7e5, uint64(k)))
		if len(batch) == 0 {
			break
		}
		out = append(out, CrashAt{At: start + k*gap, Nodes: batch})
		size *= growth
	}
	return out
}
