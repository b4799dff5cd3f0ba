package scenario

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/phonecall"
	"repro/internal/rumorset"
)

// churnLossScenario builds the canonical test workload: two rumors, a crash
// wave, loss switched on mid-run, and a partial rejoin. n defaults to 6000 —
// above the engine's sharding threshold, so multi-worker runs really
// execute concurrently.
func churnLossScenario(n int) Scenario {
	crash := failure.Random{Count: n / 5, Seed: 99}.Select(n)
	return Scenario{
		Name:      "churn+loss",
		N:         n,
		Rounds:    24,
		Algorithm: AlgoPushPull,
		Events: []Event{
			InjectRumor{At: 1, Node: 0, Rumor: 0},
			Loss{At: 5, Rate: 0.1, Seed: 7},
			CrashAt{At: 8, Nodes: crash},
			InjectRumor{At: 10, Node: 1, Rumor: 1},
			JoinAt{At: 16, Nodes: crash[:len(crash)/2]},
		},
	}
}

// TestScenarioDeterministicAcrossWorkers is the acceptance determinism test:
// a churn+loss scenario must produce bit-identical results — totals, phase
// traces, rumor outcomes — for Workers ∈ {1, 2, 8}.
func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	sc := churnLossScenario(6000)
	ref, err := Run(context.Background(), sc, Config{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rumors[0].LiveInformed == 0 {
		t.Fatalf("reference run informed nobody: %+v", ref)
	}
	for _, workers := range []int{2, 8} {
		res, err := Run(context.Background(), sc, Config{Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: results differ:\n  1: %+v\n  %d: %+v", workers, ref, workers, res)
		}
	}
}

// TestScenarioAllAlgorithmsSpread sanity-checks every steppable protocol on
// a static scenario: a single rumor reaches everyone within the budget.
func TestScenarioAllAlgorithmsSpread(t *testing.T) {
	for _, algo := range Algorithms() {
		sc := Scenario{
			N:         500,
			Rounds:    40,
			Algorithm: algo,
			Events:    []Event{InjectRumor{At: 1, Node: 0, Rumor: 0}},
		}
		res, err := Run(context.Background(), sc, Config{Seed: 3, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out := res.Rumors[0]
		if out.LiveFraction != 1 {
			t.Errorf("%s: informed fraction %.3f, want 1", algo, out.LiveFraction)
		}
		if out.CompletionRound == 0 {
			t.Errorf("%s: no completion round within %d rounds", algo, sc.Rounds)
		}
	}
}

// TestCrashStopsSpreading pins the crash semantics end-to-end: crashing
// every informed node right after injection leaves the rumor dead.
func TestCrashStopsSpreading(t *testing.T) {
	sc := Scenario{
		N:         100,
		Rounds:    20,
		Algorithm: AlgoPush,
		Events: []Event{
			InjectRumor{At: 1, Node: 0, Rumor: 0},
			// Crash the only source before round 1 even runs.
			CrashAt{At: 1, Nodes: []int{0}},
		},
	}
	res, err := Run(context.Background(), sc, Config{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rumors[0].LiveInformed; got != 0 {
		t.Fatalf("rumor spread from a crashed source: %d live informed", got)
	}
}

// TestJoinRestartsUninformed pins the JoinAt semantics under the driver: a
// crashed-then-rejoined node comes back empty and can be re-informed.
func TestJoinRestartsUninformed(t *testing.T) {
	sc := Scenario{
		N:         300,
		Rounds:    50,
		Algorithm: AlgoPushPull,
		Events: []Event{
			InjectRumor{At: 1, Node: 0, Rumor: 0},
			CrashAt{At: 12, Nodes: []int{5, 6, 7}},
			JoinAt{At: 20, Nodes: []int{5, 6, 7}},
		},
	}
	res, err := Run(context.Background(), sc, Config{Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// By round 12 the rumor has long saturated n=300; the rejoiners come
	// back uninformed, and push-pull re-informs them well within 30 rounds.
	if got := res.Rumors[0].LiveFraction; got != 1 {
		t.Fatalf("rejoined nodes not re-informed: fraction %.3f", got)
	}
	// The rejoin opens a phase whose live count is back to n.
	last := res.ScenarioPhases[len(res.ScenarioPhases)-1]
	if last.Live != 300 {
		t.Fatalf("final phase live = %d, want 300", last.Live)
	}
	if len(res.ScenarioPhases) != 3 {
		t.Fatalf("got %d phases, want 3 (inject, crash, join)", len(res.ScenarioPhases))
	}
}

// TestLossSlowsSpreading checks the loss path end-to-end: heavy loss must
// strictly reduce how far a push broadcast gets in a fixed round budget.
func TestLossSlowsSpreading(t *testing.T) {
	base := Scenario{
		N:         2000,
		Rounds:    8,
		Algorithm: AlgoPush,
		Events:    []Event{InjectRumor{At: 1, Node: 0, Rumor: 0}},
	}
	clean, err := Run(context.Background(), base, Config{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lossy := base
	lossy.Events = append([]Event{Loss{At: 1, Rate: 0.6, Seed: 9}}, lossy.Events...)
	dropped, err := Run(context.Background(), lossy, Config{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Rumors[0].LiveInformed >= clean.Rumors[0].LiveInformed {
		t.Fatalf("60%% loss did not slow spreading: %d vs %d informed",
			dropped.Rumors[0].LiveInformed, clean.Rumors[0].LiveInformed)
	}
}

// TestMultiRumorOutcomes checks that independently injected rumors are
// tracked independently and report their injection rounds.
func TestMultiRumorOutcomes(t *testing.T) {
	sc := Scenario{
		N:         400,
		Rounds:    40,
		Algorithm: AlgoPushPull,
		Events: []Event{
			InjectRumor{At: 1, Node: 0, Rumor: 0},
			InjectRumor{At: 15, Node: 7, Rumor: 3},
		},
	}
	res, err := Run(context.Background(), sc, Config{Seed: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rumors) != 2 {
		t.Fatalf("got %d rumor outcomes, want 2", len(res.Rumors))
	}
	if res.Rumors[0].Rumor != 0 || res.Rumors[1].Rumor != 3 {
		t.Fatalf("rumor outcomes out of order: %+v", res.Rumors)
	}
	if res.Rumors[0].InjectRound != 1 || res.Rumors[1].InjectRound != 15 {
		t.Fatalf("inject rounds wrong: %+v", res.Rumors)
	}
	for _, ro := range res.Rumors {
		if ro.LiveFraction != 1 || ro.CompletionRound == 0 {
			t.Fatalf("rumor %d did not complete: %+v", ro.Rumor, ro)
		}
	}
	if res.Rumors[1].CompletionRound <= res.Rumors[0].CompletionRound {
		t.Fatalf("late rumor completed before the early one: %+v", res.Rumors)
	}
}

// TestTimelineUnderClosedProtocol exercises Timeline.Attach: the same churn
// events, applied under a hand-rolled closed push loop through the engine
// hook, must fail and revive nodes at the right rounds.
func TestTimelineUnderClosedProtocol(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(
		CrashAt{At: 3, Nodes: []int{1, 2}},
		Loss{At: 4, Rate: 1, Seed: 1},
		JoinAt{At: 6, Nodes: []int{1}},
	)
	tl.Attach(net)
	liveAt := map[int]int{}
	for r := 1; r <= 6; r++ {
		net.ExecCalls(func(int) phonecall.Call {
			return phonecall.Call{Kind: phonecall.Push, Target: phonecall.RandomTarget()}
		}, nil, nil, nil)
		liveAt[r] = net.LiveCount()
	}
	if tl.Err() != nil {
		t.Fatal(tl.Err())
	}
	if liveAt[2] != 50 || liveAt[3] != 48 || liveAt[6] != 49 {
		t.Fatalf("timeline live counts wrong: %v", liveAt)
	}
	if tl.Remaining() != 0 {
		t.Fatalf("%d events never fired", tl.Remaining())
	}
	if net.LossRate() != 1 {
		t.Fatalf("loss rate = %v, want 1", net.LossRate())
	}
}

// TestTimelineInjectWithoutTrackerErrs pins the one unsupported combination:
// InjectRumor under a closed protocol reports an error instead of silently
// doing nothing.
func TestTimelineInjectWithoutTrackerErrs(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(InjectRumor{At: 1, Node: 0, Rumor: 0})
	tl.Attach(net)
	net.ExecCalls(func(int) phonecall.Call { return phonecall.Call{} }, nil, nil, nil)
	if tl.Err() == nil {
		t.Fatal("InjectRumor without tracker should error")
	}
}

// TestValidate covers the scenario validation paths.
func TestValidate(t *testing.T) {
	inject := InjectRumor{At: 1, Node: 0, Rumor: 0}
	for _, tc := range []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"valid", Scenario{N: 10, Rounds: 5, Events: []Event{inject}}, true},
		{"tiny n", Scenario{N: 1, Rounds: 5, Events: []Event{inject}}, false},
		{"no rounds", Scenario{N: 10, Rounds: 0, Events: []Event{inject}}, false},
		{"no inject", Scenario{N: 10, Rounds: 5}, false},
		{"bad algo", Scenario{N: 10, Rounds: 5, Algorithm: "gossip9000", Events: []Event{inject}}, false},
		{"crash out of range", Scenario{N: 10, Rounds: 5, Events: []Event{inject, CrashAt{At: 2, Nodes: []int{10}}}}, false},
		{"join out of range", Scenario{N: 10, Rounds: 5, Events: []Event{inject, JoinAt{At: 2, Nodes: []int{-1}}}}, false},
		{"loss rate", Scenario{N: 10, Rounds: 5, Events: []Event{inject, Loss{At: 1, Rate: 1.5}}}, false},
		{"inject node", Scenario{N: 10, Rounds: 5, Events: []Event{InjectRumor{At: 1, Node: 99, Rumor: 0}}}, false},
		{"wide rumor id", Scenario{N: 10, Rounds: 5, Events: []Event{InjectRumor{At: 1, Node: 0, Rumor: 64}}}, true},
		{"wide forced by window", Scenario{N: 10, Rounds: 5, MaxInFlight: 4, Events: []Event{inject}}, true},
		{"negative window", Scenario{N: 10, Rounds: 5, MaxInFlight: -1, Events: []Event{inject}}, false},
		{"wide rejects corrupt", Scenario{N: 10, Rounds: 5, Events: []Event{
			InjectRumor{At: 1, Node: 0, Rumor: 9999},
			CorruptAt{At: 2, Nodes: []int{1}, Adversary: AdversarySpec{Kind: AdvLiar, Seed: 1}},
		}}, false},
	} {
		err := tc.sc.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestGenerators pins the shapes the generators emit.
func TestGenerators(t *testing.T) {
	t.Run("periodic churn", func(t *testing.T) {
		evs := PeriodicChurn(1000, 5, 10, 50, 4, 30, 1)
		// Crashes at 5, 15, 25; rejoins at 9, 19, 29.
		if len(evs) != 6 {
			t.Fatalf("got %d events: %+v", len(evs), evs)
		}
		crash, join := 0, 0
		for _, ev := range evs {
			switch e := ev.(type) {
			case CrashAt:
				crash++
				if len(e.Nodes) != 50 {
					t.Fatalf("crash batch size %d, want 50", len(e.Nodes))
				}
			case JoinAt:
				join++
			}
		}
		if crash != 3 || join != 3 {
			t.Fatalf("crash=%d join=%d, want 3/3", crash, join)
		}
		// A crash batch rejoins as the same node set.
		c, j := evs[0].(CrashAt), evs[1].(JoinAt)
		if j.At != c.At+4 || !reflect.DeepEqual(c.Nodes, j.Nodes) {
			t.Fatalf("rejoin does not mirror its crash: %+v vs %+v", c, j)
		}
		// Deterministic.
		again := PeriodicChurn(1000, 5, 10, 50, 4, 30, 1)
		if !reflect.DeepEqual(evs, again) {
			t.Fatal("PeriodicChurn not deterministic")
		}
	})

	t.Run("flap", func(t *testing.T) {
		nodes := []int{1, 2, 3}
		evs := Flap(nodes, 2, 3, 5, 18)
		// Down at 2, 10, 18; up at 5, 13 (21 is past horizon).
		if len(evs) != 5 {
			t.Fatalf("got %d events: %+v", len(evs), evs)
		}
		if c, ok := evs[0].(CrashAt); !ok || c.At != 2 || !reflect.DeepEqual(c.Nodes, nodes) {
			t.Fatalf("first flap event wrong: %+v", evs[0])
		}
		if j, ok := evs[1].(JoinAt); !ok || j.At != 5 {
			t.Fatalf("second flap event wrong: %+v", evs[1])
		}
	})

	t.Run("waves", func(t *testing.T) {
		evs := Waves(1000, 4, 3, 3, 100, 2, 1)
		if len(evs) != 3 {
			t.Fatalf("got %d events", len(evs))
		}
		sizes := []int{}
		for k, ev := range evs {
			c := ev.(CrashAt)
			if c.At != 4+3*k {
				t.Fatalf("wave %d at round %d, want %d", k, c.At, 4+3*k)
			}
			sizes = append(sizes, len(c.Nodes))
		}
		if !reflect.DeepEqual(sizes, []int{100, 200, 400}) {
			t.Fatalf("wave sizes = %v, want [100 200 400]", sizes)
		}
	})
}

// TestRunScenarioWithGeneratedChurn runs a generator-built scenario
// end-to-end: periodic churn with rejoin under push-pull keeps a large
// majority informed.
func TestRunScenarioWithGeneratedChurn(t *testing.T) {
	events := append(
		PeriodicChurn(2000, 6, 8, 100, 4, 36, 21),
		InjectRumor{At: 1, Node: 0, Rumor: 0},
		Loss{At: 1, Rate: 0.05, Seed: 5},
	)
	sc := Scenario{Name: "generated churn", N: 2000, Rounds: 40, Events: events}
	res, err := Run(context.Background(), sc, Config{Seed: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if frac := res.Rumors[0].LiveFraction; frac < 0.95 {
		t.Fatalf("push-pull under mild churn informed only %.3f of live nodes", frac)
	}
	if len(res.ScenarioPhases) < 4 {
		t.Fatalf("expected several phases, got %d", len(res.ScenarioPhases))
	}
}

// TestEclipseIsolatesVictims pins the eclipse dropper's two-sided physics.
// With every non-victim corrupted by the same eclipse, a rumor injected at a
// dropper spreads through the whole non-victim population but never crosses
// into the victim set: calls to victims become silence and droppers answer no
// pulls. A rumor injected AT a victim, though, still escapes — delivery stays
// honest, so the droppers learn it the moment the victim pushes at them.
func TestEclipseIsolatesVictims(t *testing.T) {
	const n = 300
	victims := []int{7, 8, 9}
	droppers := make([]int, 0, n-len(victims))
	for i := 0; i < n; i++ {
		if i != 7 && i != 8 && i != 9 {
			droppers = append(droppers, i)
		}
	}
	sc := Scenario{
		Name:      "total eclipse",
		N:         n,
		Rounds:    40,
		Algorithm: AlgoPushPull,
		Events: []Event{
			InjectRumor{At: 1, Node: 0, Rumor: 0},
			InjectRumor{At: 1, Node: 7, Rumor: 1},
			CorruptAt{At: 1, Nodes: droppers, Adversary: AdversarySpec{Kind: AdvEclipse, Victims: victims}},
		},
	}
	res, err := Run(context.Background(), sc, Config{Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rumor 0 (from a dropper): everyone except the victims, exactly.
	if got := res.Rumors[0].LiveInformed; got != n-len(victims) {
		t.Errorf("eclipsed rumor reached %d nodes, want exactly %d", got, n-len(victims))
	}
	if res.Rumors[0].CompletionRound != 0 {
		t.Error("eclipsed rumor reported completion despite dark victims")
	}
	// Rumor 1 (injected at the eclipsed node 7): the victim's own pushes carry
	// it out, so at least the whole non-victim population learns it.
	if got := res.Rumors[1].LiveInformed; got < n-len(victims) {
		t.Errorf("victim-injected rumor reached only %d nodes, want ≥ %d", got, n-len(victims))
	}
}

// TestSpammerSlowsConvergence compares the same push-pull run honest and with
// a fifth of the network spamming: with everything else fixed, convergence
// must be strictly later (or lost) under the flood.
func TestSpammerSlowsConvergence(t *testing.T) {
	const n = 500
	base := Scenario{
		N:         n,
		Rounds:    60,
		Algorithm: AlgoPushPull,
		Events:    []Event{InjectRumor{At: 1, Node: 0, Rumor: 0}},
	}
	honest, err := Run(context.Background(), base, Config{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if honest.Rumors[0].CompletionRound == 0 {
		t.Fatal("honest run did not converge — budget too tight for the comparison")
	}

	spammers := failure.Random{Count: n / 5, Seed: 21}.Select(n)
	picked := spammers[:0]
	for _, i := range spammers {
		if i != 0 {
			picked = append(picked, i)
		}
	}
	corrupt := base
	corrupt.Events = append([]Event{
		CorruptAt{At: 1, Nodes: picked, Adversary: AdversarySpec{Kind: AdvSpammer, Seed: 31}},
	}, base.Events...)
	attacked, err := Run(context.Background(), corrupt, Config{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := attacked.Rumors[0].CompletionRound
	if got != 0 && got <= honest.Rumors[0].CompletionRound {
		t.Errorf("spammed run converged at round %d, honest at %d — spam did not slow the spread",
			got, honest.Rumors[0].CompletionRound)
	}
}

// TestProtocolsFollowTheDecisionTable pins both steppable protocols to
// Algorithm.Call and Algorithm.Answers for every (algorithm, empty, complete)
// cell. internal/live pins its node step to the same table
// (TestStepFollowsTheDecisionTable), so the simulated and live rules cannot
// drift apart; the table's own rows are spelled out here once.
func TestProtocolsFollowTheDecisionTable(t *testing.T) {
	rows := []struct {
		algo            Algorithm
		empty, complete bool
		kind            phonecall.Kind
		withHoldings    bool
	}{
		{AlgoPush, true, true, phonecall.None, false},
		{AlgoPush, true, false, phonecall.None, false},
		{AlgoPush, false, false, phonecall.Push, true},
		{AlgoPush, false, true, phonecall.Push, true},
		{AlgoPull, true, true, phonecall.None, false},
		{AlgoPull, true, false, phonecall.Pull, false},
		{AlgoPull, false, false, phonecall.Pull, false},
		{AlgoPull, false, true, phonecall.None, false},
		{AlgoPushPull, true, true, phonecall.Pull, false},
		{AlgoPushPull, true, false, phonecall.Pull, false},
		{AlgoPushPull, false, false, phonecall.Exchange, true},
		{AlgoPushPull, false, true, phonecall.Exchange, true},
	}
	for _, row := range rows {
		c, withHoldings := row.algo.Call(row.empty, row.complete)
		if c.Kind != row.kind || withHoldings != row.withHoldings {
			t.Errorf("%s.Call(empty=%v, complete=%v) = %v, %v; want %v, %v",
				row.algo, row.empty, row.complete, c.Kind, withHoldings, row.kind, row.withHoldings)
		}
		if sends := c.Kind == phonecall.Push || c.Kind == phonecall.Exchange; sends != withHoldings {
			t.Errorf("%s.Call(empty=%v, complete=%v): a %v call with withHoldings=%v",
				row.algo, row.empty, row.complete, c.Kind, withHoldings)
		}
		if got, want := row.algo.Answers(row.empty), row.algo != AlgoPush && !row.empty; got != want {
			t.Errorf("%s.Answers(empty=%v) = %v, want %v", row.algo, row.empty, got, want)
		}

		// Node 1 in the cell's state: two rumors registered unless the cell is
		// "nothing registered" (empty and complete at once).
		net, err := phonecall.New(phonecall.Config{N: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := phonecall.NewRumorTracker(net)
		set, err := rumorset.New(4, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !(row.empty && row.complete) {
			for r := 0; r < 2; r++ {
				if row.complete || (r == 0 && !row.empty) {
					err = errors.Join(tr.Inject(1, phonecall.RumorID(r)), set.Inject(1, rumorset.ID(r)))
				} else {
					err = errors.Join(tr.Register(phonecall.RumorID(r)), set.Register(rumorset.ID(r)))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		wide := newWideProtocol(row.algo, net, set)
		wide.active = set.Active()
		wide.beginRound() // the set ledger's callbacks run under the round's view
		// Every call that carries a payload carries the holdings.
		for name, p := range map[string]interface {
			call(int) phonecall.Call
			payload(int) phonecall.Message
			response(int) (phonecall.Message, bool)
		}{"protocol": newProtocol(row.algo, net, tr), "wideProtocol": wide} {
			got := p.call(1)
			if got.Kind != row.kind {
				t.Errorf("%s %s.call(empty=%v, complete=%v) = %v; table says %v (withHoldings=%v)",
					name, row.algo, row.empty, row.complete, got.Kind, row.kind, row.withHoldings)
			}
			if row.withHoldings && p.payload(1).Tag != phonecall.TagHoldings {
				t.Errorf("%s %s.payload(empty=%v, complete=%v) = %+v, not the holdings",
					name, row.algo, row.empty, row.complete, p.payload(1))
			}
			if _, ok := p.response(1); ok != row.algo.Answers(row.empty) {
				t.Errorf("%s %s.response(empty=%v) answered=%v; table says %v",
					name, row.algo, row.empty, ok, row.algo.Answers(row.empty))
			}
		}
		wide.endRound()
	}
}

// TestStepIsTheSingleRumorColumn pins Algorithm.Step, the table's
// single-rumor column that the closed baselines and ClusterPUSH-PULL's pull
// round run on: a holder is complete, a non-holder empty, the rumor rides
// exactly where Call and Answers say — in the call form, where a push-pull
// non-holder's call is a bare pull — and deliver marks only on a message
// with Rumor set.
func TestStepIsTheSingleRumorColumn(t *testing.T) {
	rows := []struct {
		algo     Algorithm
		informed bool
		kind     phonecall.Kind
		carries  bool // the call carries the rumor
		answers  bool // a pull reaching the node is answered with the rumor
	}{
		{AlgoPush, true, phonecall.Push, true, false},
		{AlgoPush, false, phonecall.None, false, false},
		{AlgoPull, true, phonecall.None, false, true},
		{AlgoPull, false, phonecall.Pull, false, false},
		{AlgoPushPull, true, phonecall.Exchange, true, true},
		{AlgoPushPull, false, phonecall.Pull, false, false},
	}
	rumor := phonecall.Message{Tag: 7, Rumor: true}
	isRumor := func(m phonecall.Message) bool { return m.Tag == rumor.Tag && m.Rumor }
	for _, row := range rows {
		hasCalls := 0
		has := func(i int) bool { hasCalls++; return i == 1 && row.informed }
		var marked []int
		call, payload, respond, deliver := row.algo.Step(has, func(i int) { marked = append(marked, i) }, rumor)

		c := call(1)
		if hasCalls != 1 {
			t.Errorf("%s: call evaluated has %d times, want once", row.algo, hasCalls)
		}
		sends := c.Kind == phonecall.Push || c.Kind == phonecall.Exchange
		if c.Kind != row.kind || sends != row.carries || (sends && !isRumor(payload(1))) {
			t.Errorf("%s informed=%v: call %v; want %v, carries rumor %v", row.algo, row.informed, c.Kind, row.kind, row.carries)
		}
		if want, _ := row.algo.Call(!row.informed, row.informed); c != want {
			t.Errorf("%s informed=%v: Step's call %v is not the table's %v", row.algo, row.informed, c, want)
		}
		if (respond == nil) != (row.algo == AlgoPush) {
			t.Errorf("%s: responder present = %v; only push has none", row.algo, respond != nil)
		}
		if respond != nil {
			m, ok := respond(1)
			if ok != row.answers || (ok && !isRumor(m)) || ok != row.algo.Answers(!row.informed) {
				t.Errorf("%s informed=%v: response %+v, %v; want answers=%v", row.algo, row.informed, m, ok, row.answers)
			}
		}

		deliver(2, []phonecall.Message{{Tag: 7}, {Tag: 9, Value: 3}})
		if len(marked) != 0 {
			t.Errorf("%s: deliver marked %v on a rumor-free inbox", row.algo, marked)
		}
		deliver(3, []phonecall.Message{{Tag: 9}, rumor, rumor})
		if len(marked) != 1 || marked[0] != 3 {
			t.Errorf("%s: deliver marked %v on an inbox with the rumor, want [3]", row.algo, marked)
		}
	}
}
