package phonecall

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// Tests for the engine's dynamic-network semantics: Fail/Revive between
// rounds, oblivious per-call loss, the round-start hook, and the multi-rumor
// tracker. The mid-execution contract under test: a node failed after round r
// is dead from round r+1 on — its intents are never evaluated, in-flight
// pushes addressed to it are dropped, and per the live-participant rule it is
// not charged a communication for dropped calls.

// TestMidRunFailDropsInFlightIntents fails a push target between rounds and
// asserts that deliveries to it stop, that the sender keeps being charged for
// its attempts, and that the dead target is charged nothing from the failure
// round on: the sender is the only initiator, so every message charged after
// the failure is one of its attempts.
func TestMidRunFailDropsInFlightIntents(t *testing.T) {
	net := newTestNet(t, 8, 1)
	const sender, victim = 0, 3
	delivered := 0
	intent := func(i int) Intent {
		if i != sender {
			return Intent{}
		}
		return PushIntent(DirectTarget(net.ID(victim)), Message{Tag: 1, Rumor: true})
	}
	deliver := func(i int, inbox []Message) {
		if i == victim {
			delivered += len(inbox)
		}
	}

	for r := 0; r < 3; r++ {
		rep := net.ExecRound(intent, nil, deliver)
		if rep.MaxComms != 1 {
			t.Fatalf("round %d: maxComms = %d, want 1 (sender and live target)", r, rep.MaxComms)
		}
	}
	if delivered != 3 {
		t.Fatalf("delivered %d messages before failure, want 3", delivered)
	}
	before := net.Metrics()

	net.Fail(victim)
	for r := 0; r < 3; r++ {
		net.ExecRound(intent, nil, deliver)
	}
	after := net.Metrics()

	if delivered != 3 {
		t.Errorf("dead target still received messages: delivered=%d", delivered)
	}
	// The sender is still charged for its three attempts (live-participant
	// rule: the initiator attempted the call) and nothing else is charged.
	if after.Messages-before.Messages != 3 || after.Bits <= before.Bits {
		t.Errorf("post-failure attempts not charged: Δmessages=%d", after.Messages-before.Messages)
	}
}

// TestMidRunFailSilencesInitiator asserts that a node failed between rounds
// never has its intent evaluated again.
func TestMidRunFailSilencesInitiator(t *testing.T) {
	net := newTestNet(t, 8, 1)
	evaluated := make([]int, 8)
	intent := func(i int) Intent {
		evaluated[i]++
		return PushIntent(RandomTarget(), Message{Tag: 1})
	}
	net.ExecRound(intent, nil, nil)
	net.Fail(2)
	net.ExecRound(intent, nil, nil)
	net.ExecRound(intent, nil, nil)
	if evaluated[2] != 1 {
		t.Fatalf("failed node's intent evaluated %d times, want 1", evaluated[2])
	}
	if evaluated[0] != 3 {
		t.Fatalf("live node's intent evaluated %d times, want 3", evaluated[0])
	}
}

// TestLiveSetTracksFailRevive runs random Fail and Revive batches, with
// duplicate and out-of-range indexes, against a []bool model: after every
// batch IsFailed matches the model, LiveCount is the popcount of Live, and
// Live has no bit at or past n.
func TestLiveSetTracksFailRevive(t *testing.T) {
	for _, n := range []int{2, 64, 200} {
		net := newTestNet(t, n, 3)
		failed := make([]bool, n)
		src := rng.New(uint64(n))
		for batch := 0; batch < 300; batch++ {
			idx := make([]int, src.Intn(12))
			for k := range idx {
				idx[k] = src.Intn(n+6) - 3
			}
			fail := src.Bernoulli(0.5)
			if fail {
				net.Fail(idx...)
			} else {
				net.Revive(idx...)
			}
			for _, i := range idx {
				if i >= 0 && i < n {
					failed[i] = fail
				}
			}
			for i, f := range failed {
				if net.IsFailed(i) != f {
					t.Fatalf("n=%d batch %d: IsFailed(%d) = %v, model says %v", n, batch, i, net.IsFailed(i), f)
				}
			}
			pop := 0
			for _, w := range net.Live() {
				pop += bits.OnesCount64(w)
			}
			if net.LiveCount() != pop {
				t.Fatalf("n=%d batch %d: LiveCount %d, Live holds %d", n, batch, net.LiveCount(), pop)
			}
			if rest := n & 63; rest != 0 && net.Live()[len(net.Live())-1]>>rest != 0 {
				t.Fatalf("n=%d batch %d: Live has a bit past node %d", n, batch, n-1)
			}
		}
	}
}

// TestReviveRestoresLiveCount pins Revive semantics: only failed in-range
// nodes are revived, duplicates and live nodes are ignored, and a revived
// node initiates and receives again.
func TestReviveRestoresLiveCount(t *testing.T) {
	net := newTestNet(t, 10, 1)
	net.Fail(1, 2, 3)
	if net.LiveCount() != 7 {
		t.Fatalf("LiveCount = %d, want 7", net.LiveCount())
	}
	net.Revive(2, 2, 5, -1, 99)
	if net.LiveCount() != 8 {
		t.Fatalf("LiveCount after revive = %d, want 8", net.LiveCount())
	}
	if net.IsFailed(2) || !net.IsFailed(1) || !net.IsFailed(3) {
		t.Fatal("revive touched the wrong nodes")
	}
	got := 0
	net.ExecRound(
		func(i int) Intent {
			if i == 0 {
				return PushIntent(DirectTarget(net.ID(2)), Message{Tag: 1})
			}
			return Intent{}
		},
		nil,
		func(i int, inbox []Message) {
			if i == 2 {
				got += len(inbox)
			}
		},
	)
	if got != 1 {
		t.Fatalf("revived node received %d messages, want 1", got)
	}
}

// TestLossDropsAndCharges pins the loss accounting: with rate 1 every call is
// dropped — nothing is delivered, no pull is answered, targets are charged no
// communications — while initiators are still charged for their attempts.
func TestLossDropsAndCharges(t *testing.T) {
	net := newTestNet(t, 16, 1)
	net.SetLoss(1, 7)
	delivered := 0
	responded := 0
	rep := net.ExecRound(
		func(i int) Intent {
			if i%2 == 0 {
				return PushIntent(RandomTarget(), Message{Tag: 1, Rumor: true})
			}
			return Intent{Kind: Pull, Target: RandomTarget()}
		},
		func(j int) (Message, bool) {
			responded++
			return Message{Tag: 2, Rumor: true}, true
		},
		func(i int, inbox []Message) { delivered += len(inbox) },
	)
	if delivered != 0 || responded != 0 {
		t.Fatalf("rate-1 loss delivered %d messages, %d responses", delivered, responded)
	}
	if rep.MaxComms != 1 {
		t.Fatalf("maxComms = %d, want 1 (initiator side only)", rep.MaxComms)
	}
	m := net.Metrics()
	if m.Messages != 8 || m.ControlMessages != 8 {
		t.Fatalf("initiators not charged: messages=%d control=%d, want 8/8", m.Messages, m.ControlMessages)
	}

	// Rate 0 disables loss entirely: identical to a lossless run.
	net.SetLoss(0, 7)
	delivered = 0
	net.ExecRound(
		func(i int) Intent { return PushIntent(RandomTarget(), Message{Tag: 1}) },
		nil,
		func(i int, inbox []Message) { delivered += len(inbox) },
	)
	if delivered != 16 {
		t.Fatalf("rate-0 loss delivered %d, want 16", delivered)
	}
}

// TestLossIsObliviousToExecutionSeed asserts that the drop pattern depends on
// the loss seed, not the execution seed, and is reproducible.
func TestLossIsObliviousToExecutionSeed(t *testing.T) {
	countDelivered := func(execSeed, lossSeed uint64) int {
		net, err := New(Config{N: 64, Seed: execSeed})
		if err != nil {
			t.Fatal(err)
		}
		net.SetLoss(0.5, lossSeed)
		delivered := 0
		for r := 0; r < 4; r++ {
			net.ExecRound(
				func(i int) Intent { return PushIntent(DirectTarget(net.ID((i+1)%64)), Message{Tag: 1}) },
				nil,
				func(i int, inbox []Message) { delivered += len(inbox) },
			)
		}
		return delivered
	}
	a := countDelivered(1, 9)
	if b := countDelivered(1, 9); a != b {
		t.Fatalf("loss not reproducible: %d vs %d", a, b)
	}
	// Same execution seed, different loss seed: a different drop pattern.
	// Fixed targets mean any difference comes from the loss process alone.
	if c := countDelivered(1, 10); a == c {
		t.Logf("note: identical delivery count for different loss seeds (%d); pattern may still differ", a)
	}
	if a == 0 || a == 4*64 {
		t.Fatalf("rate-0.5 loss delivered %d of %d — drop decision looks degenerate", a, 4*64)
	}
}

// dynamicWorkload drives a workload with mid-run failures, revives and loss,
// recording the full observable state, to pin worker-count determinism of the
// dynamic paths (the satellite requirement: Fail between rounds stays
// bit-identical across Workers 1/2/8).
type dynamicWorkload struct {
	net     *Network
	tracker *RumorTracker
	log     [][]Message
}

func newDynamicWorkload(t *testing.T, n, workers int) *dynamicWorkload {
	t.Helper()
	net, err := New(Config{N: n, Seed: 123, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	wl := &dynamicWorkload{net: net, tracker: NewRumorTracker(net), log: make([][]Message, n)}
	if err := wl.tracker.Inject(0, 0); err != nil {
		t.Fatal(err)
	}
	return wl
}

func (wl *dynamicWorkload) run(rounds int, onRound func(r int)) {
	net := wl.net
	tr := wl.tracker
	for r := 1; r <= rounds; r++ {
		if onRound != nil {
			onRound(r)
		}
		net.ExecRound(
			func(i int) Intent {
				if tr.Held(i) != 0 {
					return PushIntent(RandomTarget(), Message{Tag: 1, Value: tr.Held(i), Rumor: true})
				}
				return Intent{Kind: Pull, Target: RandomTarget()}
			},
			func(j int) (Message, bool) {
				if held := tr.Held(j); held != 0 {
					return Message{Tag: 1, Value: held, Rumor: true}, true
				}
				return Message{}, false
			},
			func(i int, inbox []Message) {
				var mask uint64
				for _, m := range inbox {
					mask |= m.Value
					wl.log[i] = append(wl.log[i], m)
				}
				if mask != 0 {
					tr.MarkSet(i, mask)
				}
			},
		)
	}
}

// TestDynamicDeterministicAcrossWorkers runs a churn+loss workload — Fail
// between rounds, Revive, SetLoss mid-run, a second rumor injected late — for
// Workers ∈ {1, 2, 8} and requires bit-identical metrics, delivery logs,
// holdings and live-informed counters. n is above the sharding threshold so
// the multi-worker runs really execute concurrently (covered by -race in CI).
func TestDynamicDeterministicAcrossWorkers(t *testing.T) {
	const n = 3 * shardMinNodes / 2
	churn := func(wl *dynamicWorkload) func(int) {
		return func(r int) {
			switch r {
			case 3:
				wl.tracker.Fail(1, 2, 3, 4, 100, 2000, n-1)
			case 5:
				wl.net.SetLoss(0.2, 77)
			case 7:
				wl.tracker.Revive(2, 100)
				if err := wl.tracker.Inject(50, 1); err != nil {
					t.Fatal(err)
				}
			case 9:
				wl.tracker.Fail(50)
			}
		}
	}

	ref := newDynamicWorkload(t, n, 1)
	ref.run(12, churn(ref))
	refMetrics := ref.net.Metrics()
	refLive := [2]int{ref.tracker.LiveInformed(0), ref.tracker.LiveInformed(1)}
	if refLive[0] == 0 {
		t.Fatal("reference run informed nobody")
	}

	for _, workers := range []int{2, 8} {
		wl := newDynamicWorkload(t, n, workers)
		wl.run(12, churn(wl))
		if got := wl.net.Metrics(); !reflect.DeepEqual(refMetrics, got) {
			t.Errorf("workers=%d: metrics differ:\n  1: %+v\n  %d: %+v", workers, refMetrics, workers, got)
		}
		if !reflect.DeepEqual(ref.log, wl.log) {
			t.Errorf("workers=%d: delivery logs differ", workers)
		}
		if !reflect.DeepEqual(ref.tracker.held, wl.tracker.held) {
			t.Errorf("workers=%d: rumor holdings differ", workers)
		}
		if got := [2]int{wl.tracker.LiveInformed(0), wl.tracker.LiveInformed(1)}; got != refLive {
			t.Errorf("workers=%d: live-informed counters differ: %v vs %v", workers, refLive, got)
		}
	}
}

// TestOnRoundStartHook pins the hook contract: it fires once per ExecRound
// with the 1-based round number, before intents are evaluated, and its
// Fail/SetLoss mutations take effect in the same round.
func TestOnRoundStartHook(t *testing.T) {
	net := newTestNet(t, 8, 1)
	var hookRounds []int
	net.OnRoundStart(func(r int) {
		hookRounds = append(hookRounds, r)
		if r == 2 {
			net.Fail(1)
		}
	})
	evaluated := 0
	intent := func(i int) Intent {
		if i == 1 {
			evaluated++
		}
		return Intent{}
	}
	net.ExecRound(intent, nil, nil)
	net.ExecRound(intent, nil, nil)
	if !reflect.DeepEqual(hookRounds, []int{1, 2}) {
		t.Fatalf("hook rounds = %v, want [1 2]", hookRounds)
	}
	if evaluated != 1 {
		t.Fatalf("node failed by the hook was evaluated %d times, want 1 (round 1 only)", evaluated)
	}
	// Hook also fires on empty rounds, and nil unregisters.
	net.ExecRound(nil, nil, nil)
	if len(hookRounds) != 3 {
		t.Fatalf("hook did not fire on an empty round: %v", hookRounds)
	}
	net.OnRoundStart(nil)
	net.ExecRound(intent, nil, nil)
	if len(hookRounds) != 3 {
		t.Fatal("unregistered hook still fired")
	}
}

// TestRumorTrackerChurn pins the tracker's counter consistency across
// fail/revive cycles: crashes of informed nodes decrement, revives rejoin
// uninformed, and re-marking works.
func TestRumorTrackerChurn(t *testing.T) {
	net := newTestNet(t, 6, 1)
	tr := NewRumorTracker(net)
	if err := tr.Inject(0, 3); err != nil {
		t.Fatal(err)
	}
	tr.Mark(1, 3)
	tr.Mark(1, 3) // idempotent
	tr.Mark(2, 9) // unregistered: ignored
	if got := tr.LiveInformed(3); got != 2 {
		t.Fatalf("LiveInformed = %d, want 2", got)
	}
	if tr.Has(2, 9) || tr.Held(2) != 0 {
		t.Fatal("unregistered rumor was recorded")
	}

	tr.Fail(1)
	if got := tr.LiveInformed(3); got != 1 {
		t.Fatalf("LiveInformed after crash = %d, want 1", got)
	}
	tr.Fail(1) // repeated Fail: no double-decrement
	if got := tr.LiveInformed(3); got != 1 {
		t.Fatalf("LiveInformed after duplicate crash = %d, want 1", got)
	}

	tr.Revive(1)
	if tr.Held(1) != 0 {
		t.Fatal("revived node kept its rumors; JoinAt semantics require an uninformed rejoin")
	}
	if got := tr.LiveInformed(3); got != 1 {
		t.Fatalf("LiveInformed after rejoin = %d, want 1 (node 1 rejoined uninformed)", got)
	}
	tr.Mark(1, 3)
	if got := tr.LiveInformed(3); got != 2 {
		t.Fatalf("LiveInformed after re-mark = %d, want 2", got)
	}

	if err := tr.Register(MaxRumors); err == nil {
		t.Fatal("Register accepted an out-of-range rumor id")
	}
	if err := tr.Inject(-1, 0); err == nil {
		t.Fatal("Inject accepted an out-of-range node")
	}
}
