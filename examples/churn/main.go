// Gossip under churn: the paper's model is static — an oblivious adversary
// picks its victims before round 0 — but real gossip deployments live under
// continuous crash/join churn and message loss. This walkthrough composes
// public timeline events (repro.WithTimeline) to put the classical protocols
// under exactly those dynamics and shows why robustness, not just speed,
// separates them:
//
//  1. a crash wave mid-broadcast, with rejoining (uninformed) nodes,
//  2. steady periodic churn plus 5% per-call loss,
//
// comparing push, pull and push-pull on identical timelines. The JSON twin
// of scenario 1 lives in spec.json — run it with
// `go run ./cmd/gossip -spec examples/churn/spec.json`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro"
)

func main() {
	nFlag := flag.Int("n", 20_000, "network size")
	flag.Parse()
	n := *nFlag

	fmt.Println("=== 1. crash wave at round 10, rejoin at round 24 (5% loss) ===")
	fmt.Println()
	crashed := repro.PickRandomNodes(n, n/5, 11)
	wave := []repro.TimelineEvent{
		repro.InjectRumor{At: 1, Node: 0, Rumor: 0},
		repro.LossAt{At: 1, Rate: 0.05, Seed: 7},
		repro.CrashAt{At: 10, Nodes: crashed},
		repro.JoinAt{At: 24, Nodes: crashed},
	}
	compare(n, wave)

	fmt.Println()
	fmt.Println("=== 2. steady churn: 1% of the network flaps every 6 rounds (5% loss) ===")
	fmt.Println()
	churn := append(
		repro.PeriodicChurn(n, 5, 6, n/100, 4, 44, 21),
		repro.InjectRumor{At: 1, Node: 0, Rumor: 0},
		repro.LossAt{At: 1, Rate: 0.05, Seed: 7},
	)
	compare(n, churn)

	fmt.Println()
	fmt.Println("Push stalls when its informed frontier crashes; pull recovers joiners but")
	fmt.Println("pays control traffic forever; push-pull re-informs every rejoiner quickly.")
	fmt.Println("The per-phase view of the crash-wave timeline is one command away:")
	fmt.Println("  go run ./cmd/gossip -spec examples/churn/spec.json")
}

// compare runs the same timeline under every steppable protocol.
func compare(n int, timeline []repro.TimelineEvent) {
	fmt.Printf("%-10s %10s %14s %12s %14s\n", "algorithm", "informed", "completed", "msgs/node", "final live")
	for _, algo := range []repro.Algorithm{repro.AlgoPush, repro.AlgoPull, repro.AlgoPushPull} {
		rep, err := repro.Run(context.Background(), n,
			repro.WithAlgorithm(algo),
			repro.WithSeed(1),
			repro.WithRounds(44),
			repro.WithTimeline(timeline...),
		)
		if err != nil {
			log.Fatal(err)
		}
		out := rep.Rumors[0]
		completed := "never"
		if out.CompletionRound > 0 {
			completed = fmt.Sprintf("round %d", out.CompletionRound)
		}
		fmt.Printf("%-10s %9.1f%% %14s %12.1f %14d\n",
			algo, 100*out.LiveFraction, completed, rep.MessagesPerNode, rep.Live)
	}
}
