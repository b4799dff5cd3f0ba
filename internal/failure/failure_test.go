package failure

import (
	"testing"

	"repro/internal/phonecall"
)

func newNet(t *testing.T, n int) *phonecall.Network {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRandomAdversary(t *testing.T) {
	adv := Random{Count: 100, Seed: 3}
	sel := adv.Select(1000)
	if len(sel) != 100 {
		t.Fatalf("selected %d nodes, want 100", len(sel))
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 1000 || seen[i] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[i] = true
	}
	// Deterministic for a fixed seed.
	again := Random{Count: 100, Seed: 3}.Select(1000)
	for i := range sel {
		if sel[i] != again[i] {
			t.Fatal("random adversary is not deterministic for a fixed seed")
		}
	}
}

func TestRandomAdversaryDegenerate(t *testing.T) {
	if sel := (Random{Count: 0, Seed: 1}).Select(10); len(sel) != 0 {
		t.Fatal("count 0 should select nothing")
	}
	if sel := (Random{Count: -3, Seed: 1}).Select(10); len(sel) != 0 {
		t.Fatal("negative count should select nothing")
	}
	if sel := (Random{Count: 50, Seed: 1}).Select(10); len(sel) != 10 {
		t.Fatalf("count beyond n should clamp to n, got %d", len(sel))
	}
	if sel := (Random{Count: 5, Seed: 1}).Select(0); len(sel) != 0 {
		t.Fatal("empty network should select nothing")
	}
}

// TestFailDuplicateIndexes pins that duplicate (and repeated) Fail calls
// decrement the live count exactly once per distinct node, and that LiveCount
// stays consistent across interleaved Fail/Revive sequences.
func TestFailDuplicateIndexes(t *testing.T) {
	net := newNet(t, 20)
	net.Fail(4, 4, 4, 7, 7)
	if got := net.LiveCount(); got != 18 {
		t.Fatalf("LiveCount after duplicate Fail = %d, want 18", got)
	}
	net.Fail(4, 7) // repeated call, same nodes
	if got := net.LiveCount(); got != 18 {
		t.Fatalf("LiveCount after repeated Fail = %d, want 18", got)
	}
	net.Fail(-1, 20, 100) // out of range: ignored
	if got := net.LiveCount(); got != 18 {
		t.Fatalf("LiveCount after out-of-range Fail = %d, want 18", got)
	}
	for i := 0; i < 5; i++ {
		net.Fail(i)
	}
	if got := net.LiveCount(); got != 14 {
		t.Fatalf("LiveCount after repeated single Fails = %d, want 14 (nodes 0..4,7)", got)
	}
	net.Revive(4)
	net.Fail(4)
	if got := net.LiveCount(); got != 14 {
		t.Fatalf("LiveCount after revive+refail = %d, want 14", got)
	}
}

func TestSurvivingSource(t *testing.T) {
	net := newNet(t, 10)
	net.Fail(0, 1, 2)
	if s, ok := SurvivingSource(net, 5); !ok || s != 5 {
		t.Fatalf("preferred live source not returned: %d %v", s, ok)
	}
	if s, ok := SurvivingSource(net, 1); !ok || net.IsFailed(s) {
		t.Fatalf("should fall back to a live node, got %d %v", s, ok)
	}
	all := make([]int, 10)
	for i := range all {
		all[i] = i
	}
	net.Fail(all...)
	if _, ok := SurvivingSource(net, 0); ok {
		t.Fatal("no survivors should report ok=false")
	}
}
