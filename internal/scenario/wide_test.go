package scenario

import (
	"context"
	"errors"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
)

// TestWideMatchesBitmaskPath is the conformance check for the rumor-set
// path: the same small, churn-free scenario run once on the legacy bitmask
// path and once forced wide (MaxInFlight set) must reach identical per-rumor
// fates — same completion rounds, same informed counts. (Traffic totals
// legitimately differ: the wide path retires converged rumors and stops
// re-advertising them.)
func TestWideMatchesBitmaskPath(t *testing.T) {
	for _, algo := range Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			events := []Event{
				InjectRumor{At: 1, Node: 0, Rumor: 0},
				InjectRumor{At: 3, Node: 5, Rumor: 7},
				InjectRumor{At: 6, Node: 9, Rumor: 13},
				Loss{At: 4, Rate: 0.05, Seed: 11},
			}
			base := Scenario{N: 48, Rounds: 60, Algorithm: algo, Events: events}
			wide := base
			wide.MaxInFlight = 8
			if base.Wide() || !wide.Wide() {
				t.Fatal("wideness detection broken")
			}
			cfg := Config{Seed: 42}
			rb, err := Run(context.Background(), base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := Run(context.Background(), wide, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rb.Rumors) != len(rw.Rumors) {
				t.Fatalf("rumor counts differ: bitmask %d, wide %d", len(rb.Rumors), len(rw.Rumors))
			}
			for i := range rb.Rumors {
				b, w := rb.Rumors[i], rw.Rumors[i]
				if b.Rumor != w.Rumor || b.InjectRound != w.InjectRound {
					t.Fatalf("rumor %d identity differs: %+v vs %+v", i, b, w)
				}
				if b.CompletionRound != w.CompletionRound {
					t.Errorf("rumor %d completion: bitmask %d, wide %d", b.Rumor, b.CompletionRound, w.CompletionRound)
				}
				if b.CompletionRound == 0 && b.LiveInformed != w.LiveInformed {
					t.Errorf("rumor %d informed: bitmask %d, wide %d", b.Rumor, b.LiveInformed, w.LiveInformed)
				}
			}
		})
	}
}

// TestWideBeyondBitmask runs a workload the bitmask path cannot express —
// rumor IDs far past 64, more distinct rumors than 64 — to convergence with
// GC active, checking the fate ledger and the expiry counters.
func TestWideBeyondBitmask(t *testing.T) {
	const n, stream = 32, 96
	var events []Event
	for k := 0; k < stream; k++ {
		// Sparse IDs: every 1000th, starting at 100. Injected in waves so the
		// 48-slot window never overflows before GC frees slots.
		events = append(events, InjectRumor{
			At:    1 + (k/16)*8,
			Node:  k % n,
			Rumor: phonecall.RumorID(100 + 1000*k),
		})
	}
	sc := Scenario{N: n, Rounds: 120, Algorithm: AlgoPushPull, Events: events, MaxInFlight: 48}
	res, err := Run(context.Background(), sc, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rumors) != stream {
		t.Fatalf("fate ledger has %d rumors, want %d", len(res.Rumors), stream)
	}
	for _, ro := range res.Rumors {
		if ro.CompletionRound == 0 {
			t.Errorf("rumor %d never converged (informed %d/%d)", ro.Rumor, ro.LiveInformed, res.Live)
		}
		if ro.LiveFraction != 1 {
			t.Errorf("rumor %d fraction %v, want 1", ro.Rumor, ro.LiveFraction)
		}
	}
	if res.RumorsExpired != stream {
		t.Errorf("expired %d rumors, want %d (GC inactive?)", res.RumorsExpired, stream)
	}
}

// TestWideWindowOverflow pins the backpressure contract on preplanned
// timelines: injecting more concurrent rumors than the window holds aborts
// with an errors.Is-able rumorset.ErrFull.
func TestWideWindowOverflow(t *testing.T) {
	events := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 1},
		InjectRumor{At: 1, Node: 1, Rumor: 2},
		InjectRumor{At: 1, Node: 2, Rumor: 3},
	}
	sc := Scenario{N: 8, Rounds: 10, Events: events, MaxInFlight: 2}
	_, err := Run(context.Background(), sc, Config{Seed: 1})
	if !errors.Is(err, rumorset.ErrFull) {
		t.Fatalf("3 concurrent rumors in a 2-slot window: got %v, want ErrFull", err)
	}
}

// TestWideLostInjects pins the dead-node inject accounting on both paths: an
// InjectRumor aimed at a node that is down at that round is counted, and the
// revived node rejoins without the rumor.
func TestWideLostInjects(t *testing.T) {
	events := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 0},
		CrashAt{At: 2, Nodes: []int{3}},
		InjectRumor{At: 3, Node: 3, Rumor: 1}, // lands on the crashed node
		JoinAt{At: 5, Nodes: []int{3}},
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"bitmask", Scenario{N: 8, Rounds: 30, Events: events}},
		{"wide", Scenario{N: 8, Rounds: 30, Events: events, MaxInFlight: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.sc, Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.LostInjects != 1 {
				t.Fatalf("LostInjects = %d, want 1", res.LostInjects)
			}
		})
	}
}

// TestWideReinjection pins epoch semantics end to end: a rumor retired by GC
// can be injected again later and spreads again as a fresh epoch.
func TestWideReinjection(t *testing.T) {
	events := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 500},
		InjectRumor{At: 40, Node: 3, Rumor: 500}, // long after first convergence
	}
	sc := Scenario{N: 16, Rounds: 80, Events: events, MaxInFlight: 4}
	res, err := Run(context.Background(), sc, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rumors) != 1 {
		t.Fatalf("ledger entries = %d, want 1", len(res.Rumors))
	}
	ro := res.Rumors[0]
	if ro.CompletionRound < 40 {
		t.Fatalf("completion %d predates the re-injection epoch", ro.CompletionRound)
	}
	if res.RumorsExpired != 2 {
		t.Fatalf("expired %d, want 2 (one per epoch)", res.RumorsExpired)
	}
}

// TestWideWorkerInvariance extends the engine's bit-identical-across-shards
// guarantee to the wide path.
func TestWideWorkerInvariance(t *testing.T) {
	var events []Event
	for k := 0; k < 80; k++ {
		events = append(events, InjectRumor{At: 1 + k/20, Node: k % 24, Rumor: phonecall.RumorID(k * 3)})
	}
	events = append(events, CrashAt{At: 10, Nodes: []int{1, 2}}, JoinAt{At: 20, Nodes: []int{1}})
	for _, algo := range Algorithms() {
		sc := Scenario{N: 24, Rounds: 60, Algorithm: algo, Events: events, MaxInFlight: 128}
		var first Result
		for i, workers := range []int{1, 3, 8} {
			res, err := Run(context.Background(), sc, Config{Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = res
				continue
			}
			if res.Messages != first.Messages || res.Bits != first.Bits {
				t.Fatalf("%s workers=%d traffic (%d msgs, %d bits) differs from workers=1 (%d, %d)",
					algo, workers, res.Messages, res.Bits, first.Messages, first.Bits)
			}
			for j := range first.Rumors {
				if res.Rumors[j] != first.Rumors[j] {
					t.Fatalf("%s workers=%d rumor %d fate %+v differs from %+v",
						algo, workers, first.Rumors[j].Rumor, res.Rumors[j], first.Rumors[j])
				}
			}
		}
	}
}

// TestWideDeliverSkipsOutOfRangeIDs pins the merge path's ID check: a message
// carries IDs as 64-bit NodeIDs, and a value above the 32-bit rumor ID space
// must be dropped like an unknown ID, not truncated into the rumor its low
// bits spell. (Only a corrupting adversary could put one on the wire, which
// ValidateEvents keeps off wide runs today.)
func TestWideDeliverSkipsOutOfRangeIDs(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rumorset.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Inject(0, 5); err != nil {
		t.Fatal(err)
	}
	p := newWideProtocol(AlgoPushPull, net, set)
	p.deliver(1, []phonecall.Message{{Tag: tagRumorSet, Rumor: true, IDs: []phonecall.NodeID{1<<32 | 5}}})
	if set.Has(1, 5) {
		t.Fatal("carried value 1<<32|5 marked rumor 5")
	}
	p.deliver(1, []phonecall.Message{{Tag: tagRumorSet, Rumor: true, IDs: []phonecall.NodeID{5}}})
	if !set.Has(1, 5) {
		t.Fatal("in-range id 5 was not merged")
	}
}
