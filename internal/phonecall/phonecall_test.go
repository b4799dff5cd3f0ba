package phonecall

import (
	"testing"
	"testing/quick"
)

func newTestNet(t *testing.T, n int, seed uint64) *Network {
	t.Helper()
	net, err := New(Config{N: n, Seed: seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return net
}

func TestNewRejectsTinyNetworks(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if _, err := New(Config{N: n}); err == nil {
			t.Fatalf("New(N=%d) should fail", n)
		}
	}
}

func TestIDsAreUniqueAndNonZero(t *testing.T) {
	net := newTestNet(t, 5000, 1)
	seen := make(map[NodeID]bool, net.N())
	for i := 0; i < net.N(); i++ {
		id := net.ID(i)
		if id == NoNode {
			t.Fatalf("node %d has the NoNode ID", i)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
		back, ok := net.IndexOf(id)
		if !ok || back != i {
			t.Fatalf("IndexOf(ID(%d)) = %d, %v", i, back, ok)
		}
	}
}

func TestPushDeliveryAndAccounting(t *testing.T) {
	net := newTestNet(t, 10, 2)
	dst := net.ID(3)
	received := make(map[int]int)
	report := net.ExecRound(
		func(i int) Intent {
			if i == 0 {
				return PushIntent(DirectTarget(dst), Message{Tag: 7, Value: 42})
			}
			return Intent{}
		},
		nil,
		func(i int, inbox []Message) {
			received[i] = len(inbox)
			if inbox[0].Tag != 7 || inbox[0].Value != 42 {
				t.Errorf("unexpected message %+v", inbox[0])
			}
			if inbox[0].From != net.ID(0) {
				t.Errorf("From = %d, want sender ID", inbox[0].From)
			}
		},
	)
	if len(received) != 1 || received[3] != 1 {
		t.Fatalf("received = %v, want only node 3", received)
	}
	m := net.Metrics()
	if m.Messages != 1 || m.ControlMessages != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Rounds != 1 || report.Round != 1 {
		t.Fatalf("round count wrong: %d / %d", m.Rounds, report.Round)
	}
	if report.Messages != 1 {
		t.Fatalf("report.Messages = %d", report.Messages)
	}
}

func TestPullResponseAndAddressObliviousness(t *testing.T) {
	net := newTestNet(t, 20, 3)
	target := net.ID(5)
	responseCalls := 0
	gotByPuller := map[int]uint64{}
	net.ExecRound(
		func(i int) Intent {
			if i < 4 {
				return Intent{Kind: Pull, Target: DirectTarget(target)}
			}
			return Intent{}
		},
		func(i int) (Message, bool) {
			if i != 5 {
				t.Errorf("responseOf called for node %d", i)
			}
			responseCalls++
			return Message{Tag: 1, Value: 99}, true
		},
		func(i int, inbox []Message) {
			gotByPuller[i] = inbox[0].Value
		},
	)
	if responseCalls != 1 {
		t.Fatalf("responseOf called %d times, want 1 (address-oblivious caching)", responseCalls)
	}
	if len(gotByPuller) != 4 {
		t.Fatalf("got %d pullers with responses, want 4", len(gotByPuller))
	}
	for i, v := range gotByPuller {
		if v != 99 {
			t.Fatalf("puller %d got %d", i, v)
		}
	}
	m := net.Metrics()
	if m.ControlMessages != 4 {
		t.Fatalf("ControlMessages = %d, want 4", m.ControlMessages)
	}
	if m.Messages != 4 {
		t.Fatalf("Messages = %d, want 4 responses", m.Messages)
	}
	if m.MaxCommsPerRound < 4 {
		t.Fatalf("MaxCommsPerRound = %d, want >= 4 (node 5 answered 4 pulls)", m.MaxCommsPerRound)
	}
}

func TestPullNoResponse(t *testing.T) {
	net := newTestNet(t, 10, 4)
	delivered := false
	net.ExecRound(
		func(i int) Intent {
			if i == 0 {
				return Intent{Kind: Pull, Target: DirectTarget(net.ID(1))}
			}
			return Intent{}
		},
		func(i int) (Message, bool) { return Message{}, false },
		func(i int, inbox []Message) { delivered = true },
	)
	if delivered {
		t.Fatal("no response should be delivered when responder declines")
	}
	if m := net.Metrics(); m.Messages != 0 || m.ControlMessages != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFailedNodesAreSilentAndDrop(t *testing.T) {
	net := newTestNet(t, 10, 5)
	net.Fail(1, 2)
	if net.LiveCount() != 8 {
		t.Fatalf("LiveCount = %d", net.LiveCount())
	}
	if !net.IsFailed(1) || net.IsFailed(3) {
		t.Fatal("IsFailed bookkeeping wrong")
	}
	intentCalls := map[int]bool{}
	delivered := map[int]bool{}
	net.ExecRound(
		func(i int) Intent {
			intentCalls[i] = true
			// everyone pushes to failed node 1 and pulls are not used
			return PushIntent(DirectTarget(net.ID(1)), Message{Tag: 1})
		},
		nil,
		func(i int, inbox []Message) { delivered[i] = true },
	)
	if intentCalls[1] || intentCalls[2] {
		t.Fatal("intentOf called for failed node")
	}
	if len(delivered) != 0 {
		t.Fatalf("messages delivered to failed node: %v", delivered)
	}
	// messages to failed nodes still count as sent
	if m := net.Metrics(); m.Messages != 8 {
		t.Fatalf("Messages = %d, want 8", m.Messages)
	}
}

func TestDoubleFailIsIdempotent(t *testing.T) {
	net := newTestNet(t, 10, 6)
	net.Fail(3)
	net.Fail(3)
	if net.LiveCount() != 9 {
		t.Fatalf("LiveCount = %d, want 9", net.LiveCount())
	}
}

func TestRandomTargetNeverSelf(t *testing.T) {
	net := newTestNet(t, 50, 7)
	for round := 0; round < 200; round++ {
		net.ExecRound(
			func(i int) Intent { return PushIntent(RandomTarget(), Message{Tag: 1}) },
			nil,
			nil,
		)
	}
	// Self-delivery cannot be observed directly; instead verify Contact.
	for i := 0; i < net.N(); i++ {
		if j := net.Contact(net.Round(), i, RandomTarget()); j < 0 || j == i {
			t.Fatalf("Contact(%d, random) = %d", i, j)
		}
	}
}

func TestRandomTargetsCoverNetwork(t *testing.T) {
	net := newTestNet(t, 64, 8)
	hit := make([]bool, net.N())
	for round := 0; round < 60; round++ {
		net.ExecRound(
			func(i int) Intent {
				if i == 0 {
					return PushIntent(RandomTarget(), Message{Tag: 1})
				}
				return Intent{}
			},
			nil,
			func(i int, inbox []Message) { hit[i] = true },
		)
	}
	count := 0
	for _, h := range hit {
		if h {
			count++
		}
	}
	if count < 25 {
		t.Fatalf("only %d distinct nodes hit by 60 random pushes from one node", count)
	}
}

func TestDirectTargetUnknownIDIsLost(t *testing.T) {
	net := newTestNet(t, 10, 9)
	delivered := false
	net.ExecRound(
		func(i int) Intent {
			if i == 0 {
				return PushIntent(DirectTarget(NodeID(0xdeadbeef)), Message{Tag: 1})
			}
			return Intent{}
		},
		nil,
		func(i int, inbox []Message) { delivered = true },
	)
	if delivered {
		t.Fatal("message to unknown ID must be lost")
	}
}

func TestSelfTargetIsDropped(t *testing.T) {
	net := newTestNet(t, 10, 10)
	delivered := false
	net.ExecRound(
		func(i int) Intent {
			if i == 0 {
				return PushIntent(DirectTarget(net.ID(0)), Message{Tag: 1})
			}
			return Intent{}
		},
		nil,
		func(i int, inbox []Message) { delivered = true },
	)
	if delivered {
		t.Fatal("self-addressed message must be dropped")
	}
}

func TestMessageSizeAccounting(t *testing.T) {
	net := newTestNet(t, 1000, 11)
	base := net.MessageSize(Message{})
	withID := net.MessageSize(Message{IDs: []NodeID{1}})
	if withID-base != net.IDBits() {
		t.Fatalf("one ID should add %d bits, added %d", net.IDBits(), withID-base)
	}
	withRumor := net.MessageSize(Message{Rumor: true})
	if withRumor-base != net.PayloadBits() {
		t.Fatalf("rumor should add %d bits, added %d", net.PayloadBits(), withRumor-base)
	}
	if net.MessageSize(Message{Bits: 12345}) != 12345 {
		t.Fatal("explicit Bits should override computed size")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(workers int) Metrics {
		net, err := New(Config{N: 3000, Seed: 77, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		informed := make([]bool, net.N())
		informed[0] = true
		for r := 0; r < 20; r++ {
			net.ExecRound(
				func(i int) Intent {
					if informed[i] {
						return PushIntent(RandomTarget(), Message{Tag: 1, Rumor: true})
					}
					return Intent{Kind: Pull, Target: RandomTarget()}
				},
				func(i int) (Message, bool) {
					if informed[i] {
						return Message{Tag: 1, Rumor: true}, true
					}
					return Message{}, false
				},
				func(i int, inbox []Message) {
					for _, m := range inbox {
						if m.Rumor {
							informed[i] = true
						}
					}
				},
			)
		}
		return net.Metrics()
	}
	a, b, c := run(1), run(1), run(8)
	if a.Messages != b.Messages || a.Bits != b.Bits || a.MaxCommsPerRound != b.MaxCommsPerRound {
		t.Fatalf("same-seed sequential runs differ: %+v vs %+v", a, b)
	}
	if a.Messages != c.Messages || a.Bits != c.Bits {
		t.Fatalf("worker count changed results: %+v vs %+v", a, c)
	}
}

func TestKindString(t *testing.T) {
	if None.String() != "none" || Push.String() != "push" || Pull.String() != "pull" {
		t.Fatal("Kind.String names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestResolveTargetPropertyInRange(t *testing.T) {
	net := newTestNet(t, 257, 13)
	f := func(initiator uint16, useRandom bool, which uint16) bool {
		i := int(initiator) % net.N()
		var tgt Target
		if useRandom {
			tgt = RandomTarget()
		} else {
			tgt = DirectTarget(net.ID(int(which) % net.N()))
		}
		j := net.Contact(net.Round(), i, tgt)
		if j < 0 {
			return !useRandom // direct self-targets may be rejected
		}
		return j < net.N() && j != i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsGrowWithMessages(t *testing.T) {
	net := newTestNet(t, 100, 14)
	for r := 0; r < 5; r++ {
		before := net.Metrics().Bits
		net.ExecRound(
			func(i int) Intent { return PushIntent(RandomTarget(), Message{Tag: 1, Rumor: true}) },
			nil, nil,
		)
		after := net.Metrics().Bits
		wantAtLeast := int64(net.N()) * int64(net.PayloadBits())
		if after-before < wantAtLeast {
			t.Fatalf("round added %d bits, want at least %d", after-before, wantAtLeast)
		}
	}
}
