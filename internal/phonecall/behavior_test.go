package phonecall

import (
	"reflect"
	"testing"
)

// Unit coverage for the Byzantine seam: SetBehavior bookkeeping, the rewrite
// semantics of each library behavior, and the zero-adversary identity that
// the cross-engine conformance locks rely on.

func TestSetBehaviorBookkeeping(t *testing.T) {
	net, err := New(Config{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if net.CorruptedCount() != 0 || net.Corrupted(0) {
		t.Fatal("fresh network reports corruption")
	}
	// Out-of-range installs are ignored.
	net.SetBehavior(-1, Spammer{})
	net.SetBehavior(8, Spammer{})
	if net.CorruptedCount() != 0 {
		t.Fatalf("out-of-range install counted: %d", net.CorruptedCount())
	}
	// Removing from an honest network allocates nothing and does nothing.
	net.SetBehavior(3, nil)
	if net.CorruptedCount() != 0 || net.Corrupted(3) {
		t.Fatal("nil install on honest network changed state")
	}

	net.SetBehavior(2, Spammer{Seed: 7})
	net.SetBehavior(5, Liar{Seed: 9})
	if net.CorruptedCount() != 2 || !net.Corrupted(2) || !net.Corrupted(5) || net.Corrupted(4) {
		t.Fatalf("install bookkeeping wrong: count=%d", net.CorruptedCount())
	}
	// Replacing a behavior does not double-count.
	net.SetBehavior(2, Stale{Frozen: 1})
	if net.CorruptedCount() != 2 {
		t.Fatalf("replacement double-counted: %d", net.CorruptedCount())
	}
	// nil restores honesty and decrements exactly once.
	net.SetBehavior(2, nil)
	net.SetBehavior(2, nil)
	if net.CorruptedCount() != 1 || net.Corrupted(2) {
		t.Fatalf("restore bookkeeping wrong: count=%d", net.CorruptedCount())
	}
	if net.Corrupted(-1) || net.Corrupted(8) {
		t.Fatal("out-of-range Corrupted true")
	}
}

func TestLiarRewrite(t *testing.T) {
	registered := uint64(0b1111) // rumors 0..3 exist
	l := Liar{Seed: 42, Registered: func() uint64 { return registered }}

	truth := Message{Tag: TagHoldings, Value: 0b1010, Rumor: true}
	push := Call{Kind: Push, Target: RandomTarget()}
	c, got := l.RewriteCall(3, 1, 2, push, truth)
	if c != push {
		t.Fatalf("liar changed the call: %+v", c)
	}
	if got.Tag != TagHoldings {
		t.Fatalf("liar changed the tag: %d", got.Tag)
	}
	if extra := got.Value & registered &^ truth.Value; extra != 0 {
		t.Fatalf("liar forged registered bits %b — honest receivers would believe them", extra)
	}
	if got.Value&^registered == 0 {
		t.Fatal("liar with registered space left forged nothing outside it")
	}
	// The same (round, node) always lies the same way: pure function.
	if _, again := l.RewriteCall(3, 1, 2, push, truth); !reflect.DeepEqual(again, got) {
		t.Fatal("liar rewrite is not deterministic")
	}

	// Non-holdings traffic passes through untouched.
	ctrl := Message{Tag: 7, Value: 123}
	if _, out := l.RewriteCall(3, 1, 2, push, ctrl); !reflect.DeepEqual(out, ctrl) {
		t.Fatalf("liar rewrote non-holdings traffic: %+v", out)
	}
	// A nil Registered hook means withhold-only: no bits appear from nowhere.
	withholder := Liar{Seed: 42}
	if out, ok := withholder.RewriteResponse(3, 1, truth, true); !ok || out.Value&^truth.Value != 0 {
		t.Fatalf("withhold-only liar invented bits: %b", out.Value&^truth.Value)
	}
	// A suppressed response stays suppressed.
	if _, ok := l.RewriteResponse(3, 1, Message{}, false); ok {
		t.Fatal("liar resurrected a suppressed response")
	}
}

func TestSpammerRewrite(t *testing.T) {
	// The zero-value spammer floods every round.
	s := Spammer{Seed: 5}
	honest, truth := Call{Kind: Exchange, Target: RandomTarget()}, Message{Tag: TagHoldings, Value: 1, Rumor: true}
	c, m := s.RewriteCall(2, 4, 0, honest, truth)
	if c.Kind != Push || !c.Target.Random {
		t.Fatalf("spammer call is not a random push: %+v", c)
	}
	if m.Tag != TagSpam || !m.Rumor || m.Value == 0 {
		t.Fatalf("spam payload malformed: %+v", m)
	}
	// Pull answers are junk too, even when the node had nothing to say.
	if m, ok := s.RewriteResponse(2, 4, Message{}, false); !ok || m.Tag != TagSpam {
		t.Fatalf("spammer response not junk: %+v ok=%v", m, ok)
	}

	// A partial rate leaves some rounds honest and some spammed, and the coin
	// is a pure function of (round, node).
	part := Spammer{Rate: 0.5, Seed: 5}
	spammed, honestRounds := 0, 0
	for r := 1; r <= 64; r++ {
		c, m := part.RewriteCall(r, 4, 0, honest, truth)
		if m.Tag == TagSpam {
			spammed++
		} else {
			if c != honest || !reflect.DeepEqual(m, truth) {
				t.Fatalf("non-spamming round rewrote the call: %+v %+v", c, m)
			}
			honestRounds++
		}
		if againC, againM := part.RewriteCall(r, 4, 0, honest, truth); againC != c || !reflect.DeepEqual(againM, m) {
			t.Fatalf("spam coin not deterministic at round %d", r)
		}
	}
	if spammed == 0 || honestRounds == 0 {
		t.Fatalf("rate 0.5 never mixed: %d spam / %d honest", spammed, honestRounds)
	}
}

func TestEclipseRewrite(t *testing.T) {
	e := NewEclipse([]int{2, 5})
	if got := e.Victims(); len(got) != 2 {
		t.Fatalf("Victims() = %v", got)
	}
	pull := Call{Kind: Pull, Target: RandomTarget()}
	// A call resolving to a victim becomes silence; anything else passes.
	if c, _ := e.RewriteCall(1, 0, 2, pull, Message{}); c.Kind != None {
		t.Fatalf("call to victim not dropped: %+v", c)
	}
	if c, _ := e.RewriteCall(1, 0, 3, pull, Message{}); c != pull {
		t.Fatalf("call to non-victim rewritten: %+v", c)
	}
	// Unresolved targets (-1) are not victims.
	if c, _ := e.RewriteCall(1, 0, -1, pull, Message{}); c != pull {
		t.Fatalf("unresolved call dropped: %+v", c)
	}
	// The response stream is suppressed wholesale: answers are address-
	// oblivious, so answering anyone could leak state to a pulling victim.
	if _, ok := e.RewriteResponse(1, 0, Message{Tag: TagHoldings, Value: 1}, true); ok {
		t.Fatal("eclipse dropper answered a pull")
	}
}

func TestStaleRewrite(t *testing.T) {
	frozen := Stale{Frozen: 0b11}
	truth := Message{Tag: TagHoldings, Value: 0b1111, Rumor: true}
	push := Call{Kind: Push, Target: RandomTarget()}
	if _, m := frozen.RewriteCall(1, 0, 1, push, truth); m.Value != 0b11 {
		t.Fatalf("stale push not frozen: %b", m.Value)
	}
	if m, ok := frozen.RewriteResponse(1, 0, truth, true); !ok || m.Value != 0b11 {
		t.Fatalf("stale response not frozen: %b ok=%v", m.Value, ok)
	}
	// Non-holdings traffic passes through.
	ctrl := Message{Tag: 9, Value: 7}
	if _, m := frozen.RewriteCall(1, 0, 1, push, ctrl); !reflect.DeepEqual(m, ctrl) {
		t.Fatalf("stale rewrote control traffic: %+v", m)
	}

	// Frozen == 0 is mute: pushes vanish, exchanges become bare pulls, pure
	// pulls survive (the node still wants to learn), answers stop.
	mute := Stale{}
	if c, _ := mute.RewriteCall(1, 0, 1, push, truth); c.Kind != None {
		t.Fatalf("mute push not silenced: %+v", c)
	}
	exchange := Call{Kind: Exchange, Target: RandomTarget()}
	if c, m := mute.RewriteCall(1, 0, 1, exchange, truth); c.Kind != Pull || c.Target != exchange.Target || m.HasContent() {
		t.Fatalf("mute exchange is not a bare pull: %+v %+v", c, m)
	}
	if c, _ := mute.RewriteCall(1, 0, 1, Call{Kind: Pull, Target: RandomTarget()}, Message{}); c.Kind != Pull {
		t.Fatalf("mute dropped its pull: %+v", c)
	}
	if _, ok := mute.RewriteResponse(1, 0, truth, true); ok {
		t.Fatal("mute node answered a pull")
	}
}

// TestBehaviorsThroughEngine drives ExecCalls with a spammer installed and
// checks the rewrite lands in delivered traffic — the engine-side wiring, not
// just the behavior's own methods.
func TestBehaviorsThroughEngine(t *testing.T) {
	net, err := New(Config{N: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net.SetBehavior(0, Spammer{Seed: 11})
	spamSeen := false
	for r := 0; r < 8 && !spamSeen; r++ {
		net.ExecCalls(
			nil,
			func(int) Call { return Call{Kind: Push, Target: RandomTarget()} },
			func(i int) Message { return Message{Tag: TagHoldings, Value: uint64(i) + 1, Rumor: true} },
			nil,
			func(i int, inbox []Message) {
				for _, m := range inbox {
					if m.Tag == TagSpam {
						spamSeen = true
					}
					if m.From == net.ID(0) && m.Tag == TagHoldings {
						t.Errorf("round %d: corrupted node's honest payload leaked through", r)
					}
				}
			},
		)
	}
	if !spamSeen {
		t.Fatal("full-rate spammer's junk never delivered")
	}
}

// TestBehaviorOutsideCallerSet: a corrupted node outside a round's
// initiator set is evaluated all the same — its behavior turns the silent
// call it was not asked for into a spam push — while the protocol's callOf
// sees only the set.
func TestBehaviorOutsideCallerSet(t *testing.T) {
	net, err := New(Config{N: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net.SetBehavior(5, Spammer{Seed: 11})
	callers := NewNodeSet(16)
	callers.Put(2, true)
	var asked []int
	spam := 0
	rep := net.ExecCalls(
		callers,
		func(i int) Call {
			asked = append(asked, i)
			return Call{Kind: Push, Target: RandomTarget()}
		},
		func(i int) Message { return Message{Tag: 1} },
		nil,
		func(i int, inbox []Message) {
			for _, m := range inbox {
				if m.Tag == TagSpam && m.From == net.ID(5) {
					spam++
				}
			}
		},
	)
	if len(asked) != 1 || asked[0] != 2 {
		t.Errorf("callOf asked for %v, want only the set's node 2", asked)
	}
	if spam != 1 || rep.Messages != 2 {
		t.Errorf("%d spam messages delivered and %d sent, want 1 and 2 (node 2's push and node 5's spam)", spam, rep.Messages)
	}
}

// TestZeroBehaviorIdentity pins the conformance-lock guarantee: a network
// that had a behavior installed and removed runs bit-identically to one that
// never saw the seam at all.
func TestZeroBehaviorIdentity(t *testing.T) {
	run := func(touch bool) ([]RoundReport, []uint64) {
		t.Helper()
		net, err := New(Config{N: 64, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		tr := NewRumorTracker(net)
		if err := tr.Inject(0, 0); err != nil {
			t.Fatal(err)
		}
		if touch {
			net.SetBehavior(5, Liar{Seed: 1, Registered: tr.Registered})
			net.SetBehavior(5, nil)
		}
		var reports []RoundReport
		for r := 0; r < 10; r++ {
			rep := net.ExecCalls(
				nil,
				func(i int) Call {
					if tr.Held(i) != 0 {
						return Call{Kind: Push, Target: RandomTarget()}
					}
					return Call{}
				},
				func(i int) Message { return Message{Tag: TagHoldings, Value: tr.Held(i), Rumor: true} },
				nil,
				func(i int, inbox []Message) {
					for _, m := range inbox {
						if m.Tag == TagHoldings {
							tr.MarkSet(i, m.Value)
						}
					}
				},
			)
			reports = append(reports, rep)
		}
		held := make([]uint64, 64)
		for i := range held {
			held[i] = tr.Held(i)
		}
		return reports, held
	}
	repA, heldA := run(false)
	repB, heldB := run(true)
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("install-then-remove changed round reports:\n%v\n%v", repA, repB)
	}
	if !reflect.DeepEqual(heldA, heldB) {
		t.Fatal("install-then-remove changed the spread")
	}
}
