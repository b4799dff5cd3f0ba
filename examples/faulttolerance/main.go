// Fault tolerance: an oblivious adversary crashes an increasing fraction of
// the network (Section 8 of the paper). Theorem 19 promises that all but
// o(F) of the surviving nodes still learn the rumor. This example measures
// that ratio twice: first under the paper's start-time adversary, then —
// with WithFailureRound, which turns the same oblivious selection into a
// scenario CrashAt event — under a crash wave that strikes mid-execution,
// while cluster2's broadcast phases are still running. The program asserts
// the o(F) guarantee (uninformed/F stays far below 1) in both regimes and
// exits non-zero if any configuration violates it. A final contrast row
// shows the one regime where the guarantee genuinely breaks: a wave that
// hits while the initial clustering is still being built.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

// n is the network size, overridable with -n (cluster2's round counts grow
// only like log n, so the round-30 wave stays mid-execution from a few
// thousand nodes up).
var n = 50_000

const (
	// earlyWaveRound strikes during GrowInitialClusters, when the rumor's
	// future path is a sparse half-built structure.
	earlyWaveRound = 5
	// oFBound is the assertion threshold for uninformed/F. Theorem 19's
	// o(F) means the ratio vanishes as n grows; at n=50000 it is observed
	// at 0 start-time and below 0.3 for mid-broadcast waves.
	oFBound = 0.5
)

// midBroadcastRound picks the round for the timed wave: the middle of the
// BoundedClusterPush phase, when the clustering skeleton exists and the
// rumor has started fanning out but the PullJoin / ClusterShare phases are
// still ahead. The phase boundaries move with n, so the round is read off
// an unfailured dry run rather than hardcoded — a fixed round drifts into
// the fragile mid-clustering regime at other sizes (the contrast row below
// shows that regime deliberately).
func midBroadcastRound() int {
	res, err := repro.Run(context.Background(), n,
		repro.WithAlgorithm(repro.AlgoCluster2), repro.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	rounds := 0
	for _, p := range res.Phases {
		if p.Name == "BoundedClusterPush" {
			return rounds + p.Rounds/2
		}
		rounds += p.Rounds
	}
	return rounds / 2
}

func main() {
	flag.IntVar(&n, "n", n, "network size")
	flag.Parse()
	waveRound := midBroadcastRound()
	violations := 0

	fmt.Println("=== start-time adversary (the paper's Section 8 model) ===")
	violations += measure(0, true)

	fmt.Printf("\n=== timed crash wave at round %d (WithFailureRound, a scenario CrashAt) ===\n", waveRound)
	violations += measure(waveRound, true)

	fmt.Println("\nThe uninformed/F column stays far below 1 in both regimes: the algorithm")
	fmt.Println("informs all but o(F) survivors, matching Theorem 19 — even when the wave")
	fmt.Println("removes informed nodes and in-flight calls mid-broadcast.")

	fmt.Printf("\n=== contrast: wave at round %d, mid-clustering (no assertion) ===\n", earlyWaveRound)
	measure(earlyWaveRound, false)
	fmt.Println("\nA wave during GrowInitialClusters collapses the sparse O(1)-message")
	fmt.Println("structure the rumor would later travel through — the regime the E8 table")
	fmt.Println("(`go run ./cmd/gossip tables -experiment E8`) sweeps against robust flooding.")

	if violations > 0 {
		fmt.Printf("\nASSERTION FAILED: %d configuration(s) exceeded uninformed/F = %v\n", violations, oFBound)
		os.Exit(1)
	}
	fmt.Printf("\nassertion held: uninformed/F < %v for every asserted configuration\n", oFBound)
}

// measure runs cluster2 across failure fractions, printing the o(F) ratio.
// failureRound 0 means start-time. When assert is set, violations of oFBound
// are counted and returned.
func measure(failureRound int, assert bool) int {
	violations := 0
	fmt.Printf("%-10s %-8s %-22s %-14s %-10s %-6s\n", "failed F", "F/n", "uninformed survivors", "uninformed/F", "rounds", "o(F)?")
	for _, fraction := range []float64{0.01, 0.05, 0.10, 0.20, 0.30} {
		f := int(fraction * float64(n))
		res, err := repro.Run(context.Background(), n,
			repro.WithAlgorithm(repro.AlgoCluster2),
			repro.WithSeed(11),
			repro.WithFailures(f, 97),
			repro.WithFailureRound(failureRound),
		)
		if err != nil {
			log.Fatal(err)
		}
		uninformed := res.UninformedSurvivors()
		ratio := float64(uninformed) / float64(f)
		ok := ratio < oFBound
		if assert && !ok {
			violations++
		}
		fmt.Printf("%-10d %-8.2f %-22d %-14.4f %-10d %-6v\n",
			f, fraction, uninformed, ratio, res.Rounds, ok)
	}
	return violations
}
