package repro_test

// Runnable documentation for the unified execution API. These examples run
// in CI (`go test -run Example ./...`) with deterministic output — the
// engines are bit-reproducible from (config, seed) for any worker count.

import (
	"context"
	"fmt"

	"repro"
)

func ExampleRun() {
	rep, err := repro.Run(context.Background(), 2000,
		repro.WithAlgorithm(repro.AlgoPushPull),
		repro.WithSeed(3),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Engine, rep.AllInformed, rep.CompletionRound)
	// Output: simulator true 10
}

func ExampleRun_observer() {
	rounds := 0
	rep, err := repro.Run(context.Background(), 1000,
		repro.WithAlgorithm(repro.AlgoCluster2),
		repro.WithSeed(1),
		repro.WithObserver(func(r repro.RoundInfo) { rounds++ }),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(rounds == rep.Rounds, rep.AllInformed)
	// Output: true true
}

func ExampleRun_lockStep() {
	// The lock-step engine runs every node as its own goroutine and is
	// bit-identical to the simulator.
	sim, err := repro.Run(context.Background(), 500,
		repro.WithAlgorithm(repro.AlgoCluster2), repro.WithSeed(2))
	if err != nil {
		panic(err)
	}
	live, err := repro.Run(context.Background(), 500,
		repro.WithAlgorithm(repro.AlgoCluster2), repro.WithSeed(2),
		repro.OnLockStep(repro.TransportChannel))
	if err != nil {
		panic(err)
	}
	fmt.Println(live.Engine, sim.Rounds == live.Rounds && sim.Bits == live.Bits)
	// Output: lock-step true
}

func ExampleRun_multiRumor() {
	// Injecting rumors switches to the steppable multi-rumor driver: two
	// rumors, a mid-run crash wave, per-phase tracing.
	rep, err := repro.Run(context.Background(), 1000,
		repro.WithAlgorithm(repro.AlgoPushPull),
		repro.WithSeed(5),
		repro.WithRounds(40),
		repro.WithRumors(
			repro.InjectRumor{At: 1, Node: 0, Rumor: 0},
			repro.InjectRumor{At: 6, Node: 9, Rumor: 1},
		),
		repro.WithTimeline(repro.CrashAt{At: 10, Nodes: repro.PickRandomNodes(1000, 100, 7)}),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(rep.Rumors), rep.Live, rep.AllInformed)
	// Output: 2 900 true
}
