package trace

import (
	"strings"
	"testing"

	"repro/internal/phonecall"
)

func TestRecorderPhases(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(net)
	net.ExecRound(func(i int) phonecall.Intent {
		return phonecall.PushIntent(phonecall.RandomTarget(), phonecall.Message{Tag: 1})
	}, nil, nil)
	rec.Mark("first")
	net.ExecRound(func(i int) phonecall.Intent {
		return phonecall.PushIntent(phonecall.RandomTarget(), phonecall.Message{Tag: 1})
	}, nil, nil)
	net.ExecRound(nil, nil, nil)
	rec.Mark("second")

	phases := rec.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases", len(phases))
	}
	if phases[0].Name != "first" || phases[0].Rounds != 1 || phases[0].Messages != 100 {
		t.Fatalf("first phase = %+v", phases[0])
	}
	if phases[1].Rounds != 2 || phases[1].Messages != 100 {
		t.Fatalf("second phase = %+v", phases[1])
	}
	// Phases() must return a copy.
	phases[0].Name = "mutated"
	if rec.Phases()[0].Name != "first" {
		t.Fatal("Phases returned internal state")
	}
}

func TestSummarize(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	net.Fail(0)
	net.ExecRound(func(i int) phonecall.Intent {
		return phonecall.PushIntent(phonecall.RandomTarget(), phonecall.Message{Tag: 1, Rumor: true})
	}, nil, nil)
	res := Summarize("demo", net, 49, []Phase{{Name: "p", Rounds: 1}})
	if res.Algorithm != "demo" || res.N != 50 || res.Live != 49 {
		t.Fatalf("result = %+v", res)
	}
	if !res.AllInformed || res.UninformedSurvivors() != 0 {
		t.Fatal("49 informed of 49 live should be all informed")
	}
	if res.CompletionRound != res.Rounds {
		t.Fatal("default completion round should equal rounds")
	}
	if res.MessagesPerNode <= 0 || res.Bits <= 0 {
		t.Fatalf("complexity measures missing: %+v", res)
	}
	if !strings.Contains(res.String(), "demo") {
		t.Fatal("String() should mention the algorithm")
	}
}
