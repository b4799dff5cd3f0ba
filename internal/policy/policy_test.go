package policy

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/phonecall"
)

// randomTable builds a table with attributes drawn from small value sets, so
// group collisions (several nodes per attribute tuple) actually happen.
func randomTable(t *testing.T, r *rand.Rand, n, zones int) *Table {
	t.Helper()
	attrs := make([]Attrs, n)
	lats := []uint8{0, 16, 64}
	caps := []uint8{40, 128, 255}
	reps := []uint8{90, 180, 230}
	for i := range attrs {
		attrs[i] = Attrs{
			Zone:       r.Intn(zones),
			Latency:    lats[r.Intn(len(lats))],
			Capacity:   caps[r.Intn(len(caps))],
			Reputation: reps[r.Intn(len(reps))],
		}
	}
	tab, err := NewTable(attrs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestGenerators(t *testing.T) {
	tab, err := ZoneTable(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 10 || tab.Zones() != 3 {
		t.Fatalf("ZoneTable(10,3): len=%d zones=%d", tab.Len(), tab.Zones())
	}
	if got := tab.ZoneMembers(1); len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 7 {
		t.Fatalf("zone 1 members = %v", got)
	}
	wan, err := WanLanTable(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a := wan.Attrs(2); a.Zone != 2 || a.Latency != 32 || a.Capacity != 64 {
		t.Fatalf("wanlan node 2 attrs = %+v", a)
	}
	if a := wan.Attrs(0); a.Capacity != 255 || a.Latency != 0 {
		t.Fatalf("wanlan node 0 attrs = %+v", a)
	}
	for _, bad := range [][2]int{{10, 0}, {10, 11}, {5, -1}} {
		if _, err := ZoneTable(bad[0], bad[1]); err == nil {
			t.Errorf("ZoneTable%v accepted", bad)
		}
		if _, err := WanLanTable(bad[0], bad[1]); err == nil {
			t.Errorf("WanLanTable%v accepted", bad)
		}
	}
}

func TestTopologySpecErrors(t *testing.T) {
	cases := []struct {
		name, spec string
		n          int
	}{
		{"unknown field", `{"generatr":"zones"}`, 10},
		{"unknown generator", `{"generator":"ring","zones":2}`, 10},
		{"generator and nodes", `{"generator":"zones","nodes":[{"zone":0}]}`, 1},
		{"empty", `{}`, 10},
		{"wrong node count", `{"nodes":[{"zone":0},{"zone":1}]}`, 3},
		{"zone out of range", `{"nodes":[{"zone":-1}]}`, 1},
		{"latency out of range", `{"nodes":[{"zone":0,"latency":300}]}`, 1},
		{"capacity out of range", `{"nodes":[{"zone":0,"capacity":-2}]}`, 1},
		{"reputation out of range", `{"nodes":[{"zone":0,"reputation":256}]}`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseTopology([]byte(tc.spec))
			if err == nil {
				_, err = spec.Build(tc.n)
			}
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("error not ErrSpec: %v", err)
			}
		})
	}
}

func TestTopologySpecNodes(t *testing.T) {
	spec, err := ParseTopology([]byte(
		`{"nodes":[{"zone":1,"latency":8},{"zone":0,"capacity":10,"reputation":20}]}`))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := spec.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if a := tab.Attrs(0); a != (Attrs{Zone: 1, Latency: 8, Capacity: DefaultCapacity, Reputation: DefaultReputation}) {
		t.Fatalf("node 0 attrs = %+v", a)
	}
	if a := tab.Attrs(1); a != (Attrs{Zone: 0, Capacity: 10, Reputation: 20}) {
		t.Fatalf("node 1 attrs = %+v", a)
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []string{
		`{"mode":"strict"}`,
		`{"weights":{"same_zone":-1}}`,
		`{"weights":{"latency":2097153}}`,
		`{"rules":{"max_latency_distance":300}}`,
		`{"rules":{"min_reputation":-1}}`,
		`{"rules":{"min_capacity":999}}`,
		`{"rules":{"deny_zones":[-3]}}`,
		`{"mode":"enforce","bogus":1}`,
	}
	for _, spec := range cases {
		if _, err := ParsePolicy([]byte(spec)); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: err = %v, want ErrSpec", spec, err)
		}
	}
	p, err := ParsePolicy([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeEnforce {
		t.Fatalf("zero mode normalized to %q, want enforce", p.Mode)
	}
}

// TestPassthroughUniform pins the no-policy guarantee: a selector compiled
// from a topology alone delegates verbatim to phonecall.RandomPeer, so
// installing a topology cannot change any execution.
func TestPassthroughUniform(t *testing.T) {
	const n, seed = 257, 0xfeed
	tab, err := WanLanTable(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(tab, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 40; round++ {
		for i := 0; i < n; i++ {
			j, ok := sel.SelectPeer(round, i)
			if want := phonecall.RandomPeer(n, seed, round, i); !ok || j != want {
				t.Fatalf("round %d initiator %d: (%d,%v), uniform contract says %d", round, i, j, ok, want)
			}
		}
	}
}

// TestSelectorMatchesReference cross-checks the compiled slot-array selector
// against the naive per-call reference over random tables, policies and both
// partition views.
func TestSelectorMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	pols := []*Policy{
		nil,
		{},
		{Mode: ModePermissive, Rules: Rules{SameZoneOnly: true}},
		{Rules: Rules{MaxLatencyDistance: 20, MinReputation: 100}, Weights: Weights{SameZone: 4}},
		{Rules: Rules{DenyZones: []int{0}, MinCapacity: 100}, Weights: Weights{Capacity: 2, Latency: 1.5}},
		{Mode: ModePermissive, Rules: Rules{MinReputation: 250}, Weights: Weights{Reputation: 8}},
	}
	for trial := 0; trial < 6; trial++ {
		n := 20 + r.Intn(120)
		tab := randomTable(t, r, n, 1+r.Intn(4))
		pol := pols[trial%len(pols)]
		seed := r.Uint64()
		sel, err := NewSelector(tab, pol, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []bool{false, true} {
			sel.SetPartitioned(part)
			for round := 1; round <= 8; round++ {
				for i := 0; i < n; i++ {
					gotJ, gotOK := sel.SelectPeer(round, i)
					wantJ, wantOK := ReferenceSelect(tab, pol, part, seed, round, i)
					if gotOK != wantOK || (gotOK && gotJ != wantJ) {
						t.Fatalf("trial %d part=%v round %d initiator %d: selector (%d,%v), reference (%d,%v)",
							trial, part, round, i, gotJ, gotOK, wantJ, wantOK)
					}
				}
			}
		}
	}
}

// TestPartitionMasking pins the partition view: only same-zone peers resolve,
// and a node alone in its zone becomes a violation (enforce: failed call;
// permissive: uniform fallback). A SameZoneOnly policy is the same confinement
// compiled in from the start.
func TestPartitionMasking(t *testing.T) {
	attrs := make([]Attrs, 9)
	for i := range attrs {
		attrs[i] = Attrs{Zone: i % 2} // zones 0 and 1...
	}
	attrs[8] = Attrs{Zone: 2} // ...plus node 8 alone in zone 2
	tab, err := NewTable(attrs)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(tab, &Policy{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	sel.SetPartitioned(true)
	if !sel.Partitioned() {
		t.Fatal("partition flag not set")
	}
	for round := 1; round <= 30; round++ {
		for i := 0; i < 8; i++ {
			j, ok := sel.SelectPeer(round, i)
			if !ok || tab.Zone(j) != tab.Zone(i) || j == i {
				t.Fatalf("round %d: partitioned contact %d -> %d (ok=%v) crossed zones", round, i, j, ok)
			}
		}
		if _, ok := sel.SelectPeer(round, 8); ok {
			t.Fatalf("round %d: lone node resolved a partitioned peer", round)
		}
	}
	if _, violations := sel.Stats(); violations != 30 {
		t.Fatalf("violations = %d, want 30", violations)
	}
	sel.SetPartitioned(false)
	if j, ok := sel.SelectPeer(1, 8); !ok || j == 8 {
		t.Fatalf("healed lone node got (%d,%v)", j, ok)
	}

	zoned, err := ZoneTable(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sel, err = NewSelector(zoned, &Policy{Rules: Rules{SameZoneOnly: true}}, 11); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < zoned.Len(); i++ {
		if j, ok := sel.SelectPeer(2, i); !ok || zoned.Zone(j) != zoned.Zone(i) {
			t.Fatalf("SameZoneOnly contact %d -> %d (ok=%v) left the zone", i, j, ok)
		}
	}
}

// TestPermissiveFallback pins the permissive mode: an empty candidate set
// falls back to the uniform contract and counts a violation.
func TestPermissiveFallback(t *testing.T) {
	const n, seed = 31, 3
	tab, err := ZoneTable(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol := &Policy{Mode: ModePermissive, Rules: Rules{MinReputation: 255}} // nobody passes
	sel, err := NewSelector(tab, pol, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		j, ok := sel.SelectPeer(4, i)
		if want := phonecall.RandomPeer(n, seed, 4, i); !ok || j != want {
			t.Fatalf("initiator %d: fallback (%d,%v), uniform says %d", i, j, ok, want)
		}
	}
	evals, violations := sel.Stats()
	if evals != n || violations != n {
		t.Fatalf("stats = (%d,%d), want (%d,%d)", evals, violations, n, n)
	}
}

func TestCompileInstall(t *testing.T) {
	if sel, err := Compile(10, 1, nil, nil); sel != nil || err != nil {
		t.Fatalf("Compile(nil,nil) = (%v,%v), want (nil,nil)", sel, err)
	}
	if _, err := Compile(10, 1, nil, &Policy{}); !errors.Is(err, ErrSpec) {
		t.Fatalf("policy without topology: %v", err)
	}
	tab, err := ZoneTable(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(10, 1, tab, nil); !errors.Is(err, ErrSpec) ||
		!strings.Contains(err.Error(), "8") {
		t.Fatalf("size mismatch: %v", err)
	}
	net, err := phonecall.New(phonecall.Config{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Install(net, tab, &Policy{})
	if err != nil || sel == nil {
		t.Fatalf("Install: (%v,%v)", sel, err)
	}
	if net.PeerSelector() != phonecall.PeerSelector(sel) {
		t.Fatal("selector not installed on the network")
	}
	net2, err := phonecall.New(phonecall.Config{N: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sel, err := Install(net2, nil, nil); sel != nil || err != nil || net2.PeerSelector() != nil {
		t.Fatal("nil Install touched the network")
	}
}

// TestSelectPeerZeroAlloc locks the hot path allocation-free: selection under
// a real policy must not allocate (the compiled tables are immutable).
func TestSelectPeerZeroAlloc(t *testing.T) {
	sel := benchSelector(t)
	allocs := testing.AllocsPerRun(200, func() {
		sel.SelectPeer(3, 17)
	})
	if allocs != 0 {
		t.Fatalf("SelectPeer allocates %.1f per call, want 0", allocs)
	}
}

func benchSelector(tb testing.TB) *Selector {
	tab, err := WanLanTable(4096, 8)
	if err != nil {
		tb.Fatal(err)
	}
	pol := &Policy{
		Rules:   Rules{MaxLatencyDistance: 64, MinCapacity: 32},
		Weights: Weights{SameZone: 2, Capacity: 1, Latency: 0.5},
	}
	sel, err := NewSelector(tab, pol, 0xabcde)
	if err != nil {
		tb.Fatal(err)
	}
	return sel
}

// BenchmarkPolicySelect measures one policy-weighted peer selection on a
// 4096-node, 8-zone WAN topology (the bench/ layer row policy.select_peer_ns
// times the same call).
func BenchmarkPolicySelect(b *testing.B) {
	sel := benchSelector(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel.SelectPeer(i>>12+1, i&4095)
	}
}
