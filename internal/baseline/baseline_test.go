package baseline

import (
	"math"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func newNet(t testing.TB, n int, seed uint64) *phonecall.Network {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatalf("phonecall.New: %v", err)
	}
	return net
}

func requireAll(t *testing.T, r trace.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("broadcast failed: %v", err)
	}
	if !r.AllInformed {
		t.Fatalf("%s informed only %d/%d nodes", r.Algorithm, r.Informed, r.Live)
	}
}

func TestPushInformsAll(t *testing.T) {
	for _, n := range []int{100, 2000, 20000} {
		net := newNet(t, n, 1)
		r, err := Uniform(net, []int{0}, scenario.AlgoPush)
		requireAll(t, r, err)
		if float64(r.CompletionRound) > 3*math.Log2(float64(n))+10 {
			t.Fatalf("push completed in %d rounds at n=%d, want O(log n)", r.CompletionRound, n)
		}
	}
}

func TestPullInformsAll(t *testing.T) {
	net := newNet(t, 5000, 2)
	r, err := Uniform(net, []int{0}, scenario.AlgoPull)
	requireAll(t, r, err)
}

func TestPushPullInformsAll(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		net := newNet(t, n, 3)
		r, err := Uniform(net, []int{0}, scenario.AlgoPushPull)
		requireAll(t, r, err)
		if float64(r.CompletionRound) > 2.5*math.Log2(float64(n)) {
			t.Fatalf("push-pull completed in %d rounds at n=%d, want about log n + log log n", r.CompletionRound, n)
		}
	}
}

func TestPushPullRoundsGrowLogarithmically(t *testing.T) {
	run := func(n int) int {
		net := newNet(t, n, 7)
		r, err := Uniform(net, []int{0}, scenario.AlgoPushPull)
		requireAll(t, r, err)
		return r.CompletionRound
	}
	small, large := run(1000), run(100000)
	if large <= small {
		t.Fatalf("push-pull rounds should grow with n: %d (1k) vs %d (100k)", small, large)
	}
}

func TestMedianCounterInformsAll(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		for seed := uint64(1); seed <= 3; seed++ {
			net := newNet(t, n, seed)
			r, err := MedianCounter(net, []int{0})
			requireAll(t, r, err)
		}
	}
}

func TestMedianCounterMessageComplexity(t *testing.T) {
	// The median-counter algorithm retires informed nodes after O(log log n)
	// rounds, so its rumor transmissions per node must stay clearly below
	// those of plain PUSH-PULL, whose nodes transmit for the whole Θ(log n)
	// budget.
	net := newNet(t, 50000, 5)
	r, err := MedianCounter(net, []int{0})
	requireAll(t, r, err)
	perNode := float64(r.Messages) / float64(r.N)
	if perNode > 2*math.Log2(float64(r.N)) {
		t.Fatalf("median-counter rumor transmissions per node = %.2f, unexpectedly large", perNode)
	}

	netPP := newNet(t, 50000, 5)
	pp, err := Uniform(netPP, []int{0}, scenario.AlgoPushPull)
	requireAll(t, pp, err)
	ppPerNode := float64(pp.Messages) / float64(pp.N)
	if perNode >= 0.8*ppPerNode {
		t.Fatalf("median-counter should transmit fewer rumors per node (%.2f) than push-pull (%.2f)", perNode, ppPerNode)
	}
}

func TestAddressBookInformsAll(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		net := newNet(t, n, 4)
		r, err := AddressBook(net, []int{0})
		requireAll(t, r, err)
	}
}

func TestAddressBookUsesDirectAddressing(t *testing.T) {
	// The harvest phase must cost about √log n messages per node.
	net := newNet(t, 20000, 6)
	r, err := AddressBook(net, []int{0})
	requireAll(t, r, err)
	if len(r.Phases) < 2 || r.Phases[0].Name != "harvest" {
		t.Fatalf("expected a harvest phase, got %+v", r.Phases)
	}
	harvestPerNode := float64(r.Phases[0].Messages) / float64(r.N)
	k := math.Ceil(math.Sqrt(math.Log2(float64(r.N))))
	if harvestPerNode < k-1 || harvestPerNode > k+1 {
		t.Fatalf("harvest messages per node = %.2f, want about √log n = %.0f", harvestPerNode, k)
	}
}

func TestNameDropperDiscoversSource(t *testing.T) {
	net := newNet(t, 500, 8)
	r, err := NameDropper(net, []int{0})
	if err != nil {
		t.Fatalf("NameDropper: %v", err)
	}
	if !r.EveryoneKnowsSource || !r.AllInformed {
		t.Fatalf("name-dropper did not discover the source at every node: %+v", r.Result)
	}
	logN := math.Log2(float64(r.N))
	if float64(r.Rounds) > 2*logN*logN {
		t.Fatalf("name-dropper rounds = %d, want O(log² n)", r.Rounds)
	}
	if r.AverageKnown < 2 {
		t.Fatalf("average known IDs = %.1f, expected knowledge to spread", r.AverageKnown)
	}
}

func TestBaselinesRejectMissingSource(t *testing.T) {
	net := newNet(t, 100, 9)
	if _, err := Uniform(net, nil, scenario.AlgoPush); err == nil {
		t.Fatal("Push without sources should fail")
	}
	if _, err := Uniform(net, []int{1000}, scenario.AlgoPushPull); err == nil {
		t.Fatal("PushPull with out-of-range source should fail")
	}
	if _, err := Uniform(net, []int{0}, "gossip"); err == nil {
		t.Fatal("Uniform with an unknown algorithm should fail")
	}
	net.Fail(5)
	if _, err := MedianCounter(net, []int{5}); err == nil {
		t.Fatal("MedianCounter with failed source should fail")
	}
}

func TestPushFaultTolerance(t *testing.T) {
	net := newNet(t, 10000, 10)
	for i := 0; i < 1000; i++ {
		net.Fail(i * 3 % 10000)
	}
	r, err := Uniform(net, []int{1}, scenario.AlgoPushPull)
	if err != nil {
		t.Fatal(err)
	}
	if r.Informed < r.Live {
		t.Fatalf("push-pull with failures informed %d/%d live nodes", r.Informed, r.Live)
	}
}

func TestRumorStateCountsLiveOnly(t *testing.T) {
	net := newNet(t, 10, 11)
	net.Fail(2)
	st, err := newRumorState(net, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	st.mark(2) // failed node should not count
	st.mark(3)
	if st.liveInformed() != 2 {
		t.Fatalf("liveInformed = %d, want 2", st.liveInformed())
	}
	if st.allInformed() {
		t.Fatal("allInformed should be false")
	}
}
