package phonecall

import "testing"

// TestRandomPeerMatchesEngine pins the exported model helper against the
// engine's cached-prefix fast path: external executors resolve random
// contacts through RandomPeer, and the two must never drift.
func TestRandomPeerMatchesEngine(t *testing.T) {
	net, err := New(Config{N: 257, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 50; round++ {
		net.round = round
		net.roundMixRound = -1
		net.refreshRoundMix()
		for i := 0; i < net.n; i++ {
			want := net.resolveRandom(i)
			if got := RandomPeer(net.n, net.Seed(), round, i); got != want {
				t.Fatalf("round %d initiator %d: RandomPeer=%d engine=%d", round, i, got, want)
			}
		}
	}
}

// TestCallLostMatchesEngine pins CallLost against the engine's cached loss
// hash for a sweep of rates.
func TestCallLostMatchesEngine(t *testing.T) {
	net, err := New(Config{N: 128, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.01, 0.25, 0.5, 0.99} {
		net.SetLoss(rate, 0xfeed)
		for round := 1; round <= 20; round++ {
			net.round = round
			net.refreshLossMix()
			for i := 0; i < net.n; i++ {
				want := net.dropCall(i)
				if got := CallLost(rate, 0xfeed, round, i); got != want {
					t.Fatalf("rate %v round %d initiator %d: CallLost=%v engine=%v", rate, round, i, got, want)
				}
			}
		}
	}
	if CallLost(0, 1, 1, 1) {
		t.Fatal("rate 0 lost a call")
	}
}

// TestExternalExecutorMerge checks the RoundDelta merge path: metrics and
// round reports must reflect exactly what the executor accounted, and a nil
// executor must restore the engine.
func TestExternalExecutorMerge(t *testing.T) {
	net, err := New(Config{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.SetExecutor(fakeExecutor{})
	rep := net.ExecCalls(func(int) Call { return Call{} }, nil, nil, nil)
	if rep.Round != 1 || rep.Messages != 7 || rep.Bits != 99 || rep.MaxComms != 3 {
		t.Fatalf("report not built from the delta: %+v", rep)
	}
	m := net.Metrics()
	if m.Messages != 5 || m.ControlMessages != 2 || m.Bits != 99 || m.MaxCommsPerRound != 3 {
		t.Fatalf("metrics not merged: %+v", m)
	}
	// An all-nil round never reaches the executor.
	rep = net.ExecCalls(nil, nil, nil, nil)
	if rep.Messages != 0 {
		t.Fatalf("empty round delegated: %+v", rep)
	}
	net.SetExecutor(nil)
	if net.Executor() != nil {
		t.Fatal("executor not uninstalled")
	}
}

type fakeExecutor struct{}

func (fakeExecutor) ExecNetworkRound(
	net *Network, round int,
	callOf func(i int) Call,
	payloadOf func(i int) Message,
	responseOf func(i int) (Message, bool),
	deliver func(i int, inbox []Message),
) RoundDelta {
	return RoundDelta{Messages: 5, Control: 2, Bits: 99, MaxComms: 3}
}
