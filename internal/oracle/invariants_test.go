package oracle_test

// External test package: the Checker must validate the engine under the
// paper's full closed algorithms, which internal/oracle itself cannot import
// without a cycle through core → cluster → phonecall.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/oracle"
	"repro/internal/phonecall"
	"repro/internal/scenario"
)

// TestCheckerCleanOnClosedAlgorithms wraps the engine with the invariant
// checker and runs the paper's algorithms end to end — including failures
// and several shards — requiring zero contract violations.
func TestCheckerCleanOnClosedAlgorithms(t *testing.T) {
	const n = 5000
	run := func(t *testing.T, name string, fail []int, workers int) {
		net, err := phonecall.New(phonecall.Config{N: n, Seed: 31, Workers: workers, PoisonInbox: true})
		if err != nil {
			t.Fatal(err)
		}
		net.Fail(fail...)
		checker := oracle.NewChecker()
		net.Observe(checker)
		var informed int
		switch name {
		case "cluster2":
			res, err := core.Cluster2(net, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			informed = res.Informed
		case "clusterpushpull":
			res, err := core.ClusterPushPull(net, []int{0}, 256)
			if err != nil {
				t.Fatal(err)
			}
			informed = res.Informed
		}
		if informed == 0 {
			t.Fatal("algorithm informed nobody")
		}
		for _, v := range checker.Violations() {
			t.Error(v)
		}
	}
	t.Run("cluster2", func(t *testing.T) { run(t, "cluster2", nil, 4) })
	t.Run("cluster2-failures", func(t *testing.T) {
		run(t, "cluster2", failure.Random{Count: n / 10, Seed: 7}.Select(n), 4)
	})
	t.Run("clusterpushpull", func(t *testing.T) { run(t, "clusterpushpull", nil, 1) })
}

// TestCheckerCleanUnderScenarioTimeline layers a churn/loss timeline under
// a closed protocol with the checker attached: events fire inside ExecCalls
// via OnRoundStart, so the checker must see the post-event membership.
func TestCheckerCleanUnderScenarioTimeline(t *testing.T) {
	const n = 600
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 13, PoisonInbox: true})
	if err != nil {
		t.Fatal(err)
	}
	checker := oracle.NewChecker()
	net.Observe(checker)
	tl := scenario.NewTimeline(
		scenario.CrashAt{At: 3, Nodes: []int{0, 1, 2, 50}},
		scenario.Loss{At: 5, Rate: 0.25, Seed: 9},
		scenario.JoinAt{At: 8, Nodes: []int{0, 1}},
	)
	tl.Attach(net)
	if _, err := core.Cluster2(net, []int{5}); err != nil {
		t.Fatal(err)
	}
	if err := tl.Err(); err != nil {
		t.Fatal(err)
	}
	for _, v := range checker.Violations() {
		t.Error(v)
	}
}

// badObservation drives the checker's methods the way a buggy engine would
// and asserts the specific contract violation is reported.
func TestCheckerCatchesViolations(t *testing.T) {
	const n = 8
	newNetAndChecker := func(t *testing.T) (*phonecall.Network, *oracle.Checker) {
		net, err := phonecall.New(phonecall.Config{N: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := oracle.NewChecker()
		net.Observe(c)
		return net, c
	}
	info := phonecall.RoundInfo{HasCall: true}
	silent := phonecall.Call{}
	push := phonecall.Call{Kind: phonecall.Push, Target: phonecall.RandomTarget()}

	t.Run("double-intent", func(t *testing.T) {
		_, c := newNetAndChecker(t)
		c.BeginRound(1, info)
		c.ObserveCall(3, silent)
		c.ObserveCall(3, silent)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "more than once") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("double-payload", func(t *testing.T) {
		_, c := newNetAndChecker(t)
		c.BeginRound(1, info)
		c.ObserveCall(3, push)
		c.ObservePayload(3, phonecall.Message{Tag: 1})
		c.ObservePayload(3, phonecall.Message{Tag: 1})
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "more than once") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("stray-payload", func(t *testing.T) {
		_, c := newNetAndChecker(t)
		c.BeginRound(1, info)
		c.ObserveCall(3, phonecall.Call{Kind: phonecall.Pull, Target: phonecall.RandomTarget()})
		c.ObservePayload(3, phonecall.Message{Tag: 1})
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "without a Push or Exchange call") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("missing-payload", func(t *testing.T) {
		_, c := newNetAndChecker(t)
		c.BeginRound(1, info)
		for i := 0; i < n; i++ {
			c.ObserveCall(i, push)
		}
		c.EndRound(phonecall.RoundReport{Round: 1})
		found := false
		for _, v := range c.Violations() {
			if strings.Contains(v.Error(), "payload never asked for") {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing payloads not flagged; violations: %v", c.Violations())
		}
	})

	t.Run("call-outside-set", func(t *testing.T) {
		_, c := newNetAndChecker(t)
		callers := phonecall.NewNodeSet(n)
		callers.Put(1, true)
		c.BeginRound(1, phonecall.RoundInfo{HasCall: true, Callers: callers})
		c.ObserveCall(1, silent)
		c.ObserveCall(6, silent)
		c.EndRound(phonecall.RoundReport{Round: 1})
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "node 6: call evaluated outside the initiator set") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("dead-node-acts", func(t *testing.T) {
		net, c := newNetAndChecker(t)
		net.Fail(2)
		c.BeginRound(1, info)
		c.ObserveCall(2, silent)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "dead node") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("uncharged-report", func(t *testing.T) {
		net, c := newNetAndChecker(t)
		c.BeginRound(1, info)
		for i := 0; i < n; i++ {
			// A round of pushes the engine supposedly charged nothing for.
			c.ObserveCall(i, phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(net.ID((i + 1) % n))})
			c.ObservePayload(i, phonecall.Message{Tag: 1})
		}
		c.EndRound(phonecall.RoundReport{Round: 1})
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "does not match the model") {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("phantom-response", func(t *testing.T) {
		net, c := newNetAndChecker(t)
		c.BeginRound(1, phonecall.RoundInfo{HasCall: true, HasResponse: true})
		for i := 0; i < net.N(); i++ {
			c.ObserveCall(i, silent)
		}
		c.ObserveResponse(4, phonecall.Message{Tag: 2}, true)
		c.EndRound(phonecall.RoundReport{Round: 1})
		found := false
		for _, v := range c.Violations() {
			if strings.Contains(v.Error(), "without a live pull") {
				found = true
			}
		}
		if !found {
			t.Fatalf("phantom response not flagged; violations: %v", c.Violations())
		}
	})
}

// TestCheckerCatchesEngineTampering runs a full scripted round through the
// real engine, but hands the checker a corrupted report — the cross-check
// against the model replay must flag it.
func TestCheckerCatchesEngineTampering(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 64, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	checker := oracle.NewChecker()
	net.Observe(checker)
	rep := net.ExecCalls(
		nil,
		func(int) phonecall.Call {
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.RandomTarget()}
		},
		func(int) phonecall.Message { return phonecall.Message{Tag: 1, Rumor: true} },
		nil, func(i int, inbox []phonecall.Message) {},
	)
	if err := checker.Err(); err != nil {
		t.Fatalf("clean round flagged: %v", err)
	}
	// Now replay the same observations but close the round with a Δ the
	// engine never produced.
	checker.BeginRound(net.Round()+1, phonecall.RoundInfo{HasCall: true})
	checker.EndRound(phonecall.RoundReport{Round: net.Round() + 1, Messages: rep.Messages})
	if err := checker.Err(); err == nil {
		t.Fatal("tampered report not flagged")
	}
}
