package oracle

import (
	"testing"

	"repro/internal/phonecall"
)

// TestOracleMatchesEngineIDs pins the documented ID-assignment procedure:
// an Oracle and a Network built from the same Config must agree on the whole
// ID directory (the oracle re-derives it from the spec, map-based).
func TestOracleMatchesEngineIDs(t *testing.T) {
	cfg := phonecall.Config{N: 500, Seed: 123}
	net, err := phonecall.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if net.ID(i) != orc.ID(i) {
			t.Fatalf("node %d: engine ID %d, oracle ID %d", i, net.ID(i), orc.ID(i))
		}
		if j, ok := orc.IndexOf(net.ID(i)); !ok || j != i {
			t.Fatalf("oracle IndexOf(%d) = %d,%v", net.ID(i), j, ok)
		}
	}
}

// TestOracleAccountingByHand checks the oracle's charges on a fully
// hand-computable round: every node pushes directly to node 0 (which stays
// silent), so n-1 payload messages land in one inbox and Δ must be n-1+0 —
// node 0 participates in n-1 incoming communications, each initiator in its
// own single attempt.
func TestOracleAccountingByHand(t *testing.T) {
	const n = 8
	orc, err := New(phonecall.Config{N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var inbox []phonecall.Message
	rep := orc.ExecCalls(
		func(i int) phonecall.Call {
			if i == 0 {
				return phonecall.Call{}
			}
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(orc.ID(0))}
		},
		func(i int) phonecall.Message { return phonecall.Message{Tag: 9, Value: uint64(i)} },
		nil,
		func(i int, in []phonecall.Message) {
			if i != 0 {
				t.Errorf("delivery to node %d", i)
			}
			inbox = append(inbox, in...)
		},
	)
	if rep.Messages != n-1 {
		t.Errorf("messages = %d, want %d", rep.Messages, n-1)
	}
	if rep.MaxComms != n-1 {
		t.Errorf("maxComms = %d, want %d", rep.MaxComms, n-1)
	}
	if len(inbox) != n-1 {
		t.Fatalf("inbox has %d messages, want %d", len(inbox), n-1)
	}
	for k, m := range inbox {
		// Defined order: ascending initiator index (initiators 1..n-1).
		if want := orc.ID(k + 1); m.From != want {
			t.Errorf("inbox[%d].From = %d, want %d", k, m.From, want)
		}
		if m.Value != uint64(k+1) {
			t.Errorf("inbox[%d].Value = %d, want %d", k, m.Value, k+1)
		}
	}
	m := orc.Metrics()
	if m.Messages != n-1 || m.ControlMessages != 0 || m.MaxCommsPerRound != n-1 {
		t.Errorf("metrics %+v", m)
	}
}

// TestOraclePullFanOut checks the address-oblivious response rule: several
// pullers contact one node, which exposes a single response that every
// puller receives (and is charged for) individually.
func TestOraclePullFanOut(t *testing.T) {
	const n = 6
	orc, err := New(phonecall.Config{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	responses := 0
	got := make(map[int][]phonecall.Message)
	rep := orc.ExecCalls(
		func(i int) phonecall.Call {
			if i == 0 {
				return phonecall.Call{}
			}
			return phonecall.Call{Kind: phonecall.Pull, Target: phonecall.DirectTarget(orc.ID(0))}
		},
		nil,
		func(j int) (phonecall.Message, bool) {
			responses++
			if j != 0 {
				t.Errorf("responseOf(%d)", j)
			}
			return phonecall.Message{Tag: 5, Rumor: true}, true
		},
		func(i int, in []phonecall.Message) {
			got[i] = append([]phonecall.Message(nil), in...)
		},
	)
	if responses != 1 {
		t.Errorf("responseOf evaluated %d times, want once", responses)
	}
	// n-1 pull requests plus n-1 response copies.
	if rep.Messages != 2*(n-1) {
		t.Errorf("report messages = %d, want %d", rep.Messages, 2*(n-1))
	}
	for i := 1; i < n; i++ {
		in := got[i]
		if len(in) != 1 || in[0].Tag != 5 || in[0].From != orc.ID(0) {
			t.Errorf("puller %d inbox %+v", i, in)
		}
	}
	m := orc.Metrics()
	if m.ControlMessages != n-1 || m.Messages != n-1 {
		t.Errorf("metrics %+v", m)
	}
}

// TestOracleFailureAndLossRules checks the live-participant rule: a call to
// a dead node charges only the initiator; total loss (rate 1) behaves the
// same for every call; revived nodes act again.
func TestOracleFailureAndLossRules(t *testing.T) {
	const n = 4
	orc, err := New(phonecall.Config{N: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	orc.Fail(1)
	if orc.LiveCount() != n-1 {
		t.Fatalf("live count %d", orc.LiveCount())
	}
	calls := 0
	rep := orc.ExecCalls(
		func(i int) phonecall.Call {
			calls++
			if i == 1 {
				t.Error("dead node's call evaluated")
			}
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(orc.ID(1))}
		},
		func(int) phonecall.Message { return phonecall.Message{Tag: 1} },
		nil,
		func(i int, in []phonecall.Message) { t.Errorf("delivery to %d despite dead target", i) },
	)
	if calls != n-1 {
		t.Errorf("calls evaluated %d times", calls)
	}
	// Initiators are charged their attempt; the dead target participates in
	// nothing.
	if rep.Messages != n-1 || rep.MaxComms != 1 {
		t.Errorf("report %+v", rep)
	}

	orc.Revive(1)
	orc.SetLoss(1, 99) // every call lost in transit
	rep = orc.ExecCalls(
		func(int) phonecall.Call {
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.RandomTarget()}
		},
		func(int) phonecall.Message { return phonecall.Message{Tag: 2} },
		nil,
		func(i int, in []phonecall.Message) { t.Errorf("delivery to %d despite total loss", i) },
	)
	if rep.Messages != n || rep.MaxComms != 1 {
		t.Errorf("report under total loss %+v", rep)
	}
}
