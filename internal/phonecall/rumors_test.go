package phonecall

import "testing"

// Direct edge-case coverage for RumorTracker; until now the tracker was only
// exercised through the scenario driver.

func newTrackerNet(t *testing.T, n int) (*Network, *RumorTracker) {
	t.Helper()
	net, err := New(Config{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net, NewRumorTracker(net)
}

// TestRumorIDBoundary pins the MaxRumors boundary: rumor 63 is the last
// valid ID, rumor 64 must be rejected everywhere without corrupting state.
func TestRumorIDBoundary(t *testing.T) {
	_, tr := newTrackerNet(t, 8)
	if err := tr.Register(MaxRumors - 1); err != nil {
		t.Fatalf("rumor %d rejected: %v", MaxRumors-1, err)
	}
	if err := tr.Register(MaxRumors); err == nil {
		t.Fatalf("rumor %d accepted", MaxRumors)
	}
	if err := tr.Inject(0, MaxRumors); err == nil {
		t.Fatal("Inject past the boundary accepted")
	}
	if tr.LiveInformed(MaxRumors) != 0 {
		t.Fatal("out-of-range LiveInformed nonzero")
	}
	tr.Mark(0, MaxRumors-1)
	if !tr.Has(0, MaxRumors-1) || tr.LiveInformed(MaxRumors-1) != 1 {
		t.Fatalf("bit 63 not tracked: held=%b live=%d", tr.Held(0), tr.LiveInformed(MaxRumors-1))
	}
	// MarkSet with unregistered high bits must ignore them.
	tr.MarkSet(1, 1<<62)
	if tr.Held(1) != 0 {
		t.Fatalf("unregistered bit recorded: %b", tr.Held(1))
	}
}

// TestRumorDuplicateInjection checks idempotence: injecting the same rumor
// at the same (or another informed) node must not double-count.
func TestRumorDuplicateInjection(t *testing.T) {
	_, tr := newTrackerNet(t, 8)
	for k := 0; k < 3; k++ {
		if err := tr.Inject(2, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.LiveInformed(5); got != 1 {
		t.Fatalf("duplicate injection counted %d times", got)
	}
	tr.Mark(2, 5) // re-mark through the delivery path too
	if got := tr.LiveInformed(5); got != 1 {
		t.Fatalf("re-mark bumped the live count to %d", got)
	}
	if err := tr.Inject(8, 0); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestRumorInjectOnDeadNode pins the churn-consistency contract: a dead node
// can hold a rumor without counting as live-informed, stops counting when it
// crashes informed, and rejoins uninformed through Revive.
func TestRumorInjectOnDeadNode(t *testing.T) {
	_, tr := newTrackerNet(t, 8)
	tr.Fail(3)
	if err := tr.Inject(3, 1); err != nil {
		t.Fatal(err)
	}
	if !tr.Has(3, 1) {
		t.Fatal("dead node's holdings not recorded")
	}
	if got := tr.LostInjects(); got != 1 {
		t.Fatalf("inject on a failed node not counted as lost (got %d)", got)
	}
	if got := tr.LiveInformed(1); got != 0 {
		t.Fatalf("dead node counted as live-informed (%d)", got)
	}
	// Revive forgets: the rejoining node starts uninformed.
	tr.Revive(3)
	if tr.Has(3, 1) {
		t.Fatal("revived node kept its holdings")
	}
	if got := tr.LiveInformed(1); got != 0 {
		t.Fatalf("revive resurrected the live count (%d)", got)
	}
	// An informed node crashing decrements; duplicate Fail does not double-
	// decrement.
	tr.Inject(4, 1)
	tr.Fail(4)
	tr.Fail(4)
	if got := tr.LiveInformed(1); got != 0 {
		t.Fatalf("crashed informed node still counted (%d)", got)
	}
	tr.Fail(-1)
	tr.Revive(99) // out-of-range churn is ignored
}

// TestRumorForgedBits pins the tracker's defense against the Liar: forged
// holdings bits — rumor IDs at or beyond MaxRumors' registered space — are
// masked away by MarkSet, so a lying advertiser can waste bandwidth but never
// mis-inform the ground truth.
func TestRumorForgedBits(t *testing.T) {
	_, tr := newTrackerNet(t, 8)
	if err := tr.Inject(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Inject(0, 3); err != nil {
		t.Fatal(err)
	}
	l := Liar{Seed: 77, Registered: tr.Registered}
	_, lie := l.RewriteCall(4, 0, 1, Call{Kind: Push, Target: RandomTarget()},
		Message{Tag: TagHoldings, Value: tr.Held(0), Rumor: true})
	if lie.Value&^tr.Registered() == 0 {
		t.Fatal("liar forged nothing — the test would be vacuous")
	}
	// An honest receiver merges the lie: only registered truth survives.
	tr.MarkSet(1, lie.Value)
	if got := tr.Held(1) &^ tr.Registered(); got != 0 {
		t.Fatalf("forged bits recorded as holdings: %b", got)
	}
	if got := tr.Held(1) &^ tr.Held(0); got != 0 {
		t.Fatalf("receiver holds bits the sender never had: %b", got)
	}
	// The forged IDs never become registered rumors either.
	for r := RumorID(0); r < MaxRumors; r++ {
		if tr.Registered()&(1<<r) != 0 && r != 0 && r != 3 {
			t.Fatalf("forgery registered rumor %d", r)
		}
	}
}

// TestRumorSpamReinjection pins convergence accounting under spam re-delivery:
// once a rumor has converged, junk re-injections and repeated MarkSets keep
// LiveInformed exactly at n instead of drifting past it.
func TestRumorSpamReinjection(t *testing.T) {
	_, tr := newTrackerNet(t, 8)
	if err := tr.Register(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tr.Mark(i, 2)
	}
	if got := tr.LiveInformed(2); got != 8 {
		t.Fatalf("converged count = %d, want 8", got)
	}
	// A spammer re-injecting the converged rumor — by Inject, Mark or a full
	// holdings re-advertisement — must not move the counter.
	for i := 0; i < 8; i++ {
		if err := tr.Inject(i, 2); err != nil {
			t.Fatal(err)
		}
		tr.Mark(i, 2)
		tr.MarkSet(i, tr.Held(i))
	}
	if got := tr.LiveInformed(2); got != 8 {
		t.Fatalf("spam re-injection drifted the count to %d", got)
	}
	// Spam junk (TagSpam values) merged as holdings is likewise inert beyond
	// the registered mask.
	junk := Spammer{Seed: 3}.junk(1, 0)
	tr.MarkSet(4, junk.Value)
	if got := tr.Held(4) &^ tr.Registered(); got != 0 {
		t.Fatalf("junk value recorded outside the registered space: %b", got)
	}
}
