package scenario

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/rumorset"
)

// TestWideMatchesBitmaskPath is the conformance check for the rumor-set
// path: the same small scenario run once on the mask ledger and once forced
// onto the set ledger (MaxInFlight set) must reach identical per-rumor fates —
// same completion rounds, same informed counts. (Traffic totals legitimately
// differ: the set ledger retires converged rumors and stops re-advertising
// them.) The churn timeline crashes and rejoins nodes while the rumors are
// still spreading, and is compared only up to the first retirement: from
// there on a rumor the mask still carries to a joiner is gone from the set.
func TestWideMatchesBitmaskPath(t *testing.T) {
	lossy := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 0},
		InjectRumor{At: 3, Node: 5, Rumor: 7},
		InjectRumor{At: 6, Node: 9, Rumor: 13},
		Loss{At: 4, Rate: 0.05, Seed: 11},
	}
	churn := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 0},
		InjectRumor{At: 1, Node: 5, Rumor: 7},
		CrashAt{At: 2, Nodes: []int{0, 3, 4, 20}},
		JoinAt{At: 4, Nodes: []int{0, 3}},
	}
	for _, algo := range Algorithms() {
		for _, upToRetirement := range []bool{false, true} {
			name, events := string(algo), lossy
			if upToRetirement {
				name, events = name+" crash-then-join", churn
			}
			t.Run(name, func(t *testing.T) {
				base := Scenario{N: 48, Rounds: 60, Algorithm: algo, Events: events}
				wide := base
				wide.MaxInFlight = 8
				if base.Wide() || !wide.Wide() {
					t.Fatal("wideness detection broken")
				}
				cfg := Config{Seed: 42}
				rw, err := Run(context.Background(), wide, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if upToRetirement {
					// Stop both runs at the first retirement.
					for _, ro := range rw.Rumors {
						if ro.CompletionRound > 0 && ro.CompletionRound < base.Rounds {
							base.Rounds, wide.Rounds = ro.CompletionRound, ro.CompletionRound
						}
					}
					if base.Rounds <= 4 {
						t.Fatalf("first retirement in round %d: the rejoin was never compared", base.Rounds)
					}
					if rw, err = Run(context.Background(), wide, cfg); err != nil {
						t.Fatal(err)
					}
				}
				rb, err := Run(context.Background(), base, cfg)
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
				// Until something retires the two ledgers make every node take
				// the same decisions, so the message counts agree too (the bits
				// do not: a digest is charged its summary bytes).
				for i := range rb.ScenarioPhases {
					if b, w := rb.ScenarioPhases[i], rw.ScenarioPhases[i]; upToRetirement && (b.Messages != w.Messages || b.Live != w.Live) {
						t.Errorf("rounds %d-%d: bitmask %d messages over %d live, wide %d over %d",
							b.FromRound, b.ToRound, b.Messages, b.Live, w.Messages, w.Live)
					}
				}
			})
		}
	}
}

// TestApplyOnEveryLedger drives each event kind through the one Event.Apply
// on the mask ledger, the set ledger and no ledger at all (a closed
// protocol's timeline), on three identical networks: the live sets must agree
// everywhere, the two ledgers must agree on every rumor's live-informed count
// and on the lost injects, and only the events that need rumor state may fail
// without a ledger.
func TestApplyOnEveryLedger(t *testing.T) {
	const n, zones = 12, 3
	topo, err := policy.ZoneTable(n, zones)
	if err != nil {
		t.Fatal(err)
	}
	var nets [3]*phonecall.Network
	var sels [3]*policy.Selector
	for k := range nets {
		if nets[k], err = phonecall.New(phonecall.Config{N: n, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if sels[k], err = policy.Install(nets[k], topo, nil); err != nil {
			t.Fatal(err)
		}
	}
	set, err := rumorset.New(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	mask := newProtocol(AlgoPushPull, nets[0], phonecall.NewRumorTracker(nets[0]))
	wide := newWideProtocol(AlgoPushPull, nets[1], set)
	ledgers := [3]ledger{mask, wide, nil}

	for _, step := range []struct {
		name     string
		ev       Event
		needs    bool  // needs a ledger: errors without one
		informed []int // live-informed of rumors 1 and 2 afterwards
		lost     int64
		live     int
	}{
		{"InjectRumor", InjectRumor{Node: 0, Rumor: 1}, true, []int{1}, 0, 12},
		{"InjectRumor second", InjectRumor{Node: 4, Rumor: 2}, true, []int{1, 1}, 0, 12},
		{"CrashAt", CrashAt{Nodes: []int{0, 5}}, false, []int{0, 1}, 0, 10},
		{"InjectRumor at failed node", InjectRumor{Node: 5, Rumor: 2}, true, []int{0, 1}, 1, 10},
		{"JoinAt", JoinAt{Nodes: []int{0, 5}}, false, []int{0, 1}, 1, 12},
		{"ZoneOutage", ZoneOutage{Zone: 1}, false, []int{0, 0}, 1, 8},
		{"ZoneHeal", ZoneHeal{Zone: 1}, false, []int{0, 0}, 1, 12},
		{"Partition", Partition{}, false, []int{0, 0}, 1, 12},
		{"HealPartition", HealPartition{}, false, []int{0, 0}, 1, 12},
	} {
		for k, l := range ledgers {
			err := step.ev.Apply(nets[k], l)
			if wantErr := step.needs && l == nil; (err != nil) != wantErr {
				t.Fatalf("%s on ledger %d: err = %v", step.name, k, err)
			}
			if nets[k].LiveCount() != step.live {
				t.Errorf("%s on ledger %d: %d live nodes, want %d", step.name, k, nets[k].LiveCount(), step.live)
			}
			for i := 0; i < n; i++ {
				if nets[k].IsFailed(i) != nets[0].IsFailed(i) {
					t.Errorf("%s: node %d failed=%v on ledger %d, %v on the mask ledger",
						step.name, i, nets[k].IsFailed(i), k, nets[0].IsFailed(i))
				}
			}
			if want := step.name == "Partition"; sels[k].Partitioned() != want {
				t.Errorf("%s on ledger %d: partitioned = %v", step.name, k, !want)
			}
		}
		for k, l := range ledgers[:2] {
			var got []int
			for _, rc := range l.informed(nil) {
				got = append(got, rc.LiveInformed)
			}
			if !reflect.DeepEqual(got, step.informed) || l.LostInjects() != step.lost {
				t.Errorf("%s on ledger %d: live-informed %v, %d lost injects; want %v, %d",
					step.name, k, got, l.LostInjects(), step.informed, step.lost)
			}
		}
	}

	// The zone events' own errors do not depend on the ledger either.
	bare, err := phonecall.New(phonecall.Config{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k, l := range ledgers {
		if err := (ZoneOutage{Zone: zones}).Apply(nets[k], l); err == nil {
			t.Errorf("ledger %d: zone outage past the topology's zones applied", k)
		}
		for _, ev := range []Event{ZoneOutage{}, ZoneHeal{}, Partition{}, HealPartition{}} {
			if err := ev.Apply(bare, l); err == nil {
				t.Errorf("ledger %d: %s applied without a topology", k, ev.Describe())
			}
		}
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
	p.deliver(1, []phonecall.Message{{Tag: phonecall.TagHoldings, Rumor: true, IDs: []phonecall.NodeID{1<<32 | 5}}})
	if set.Has(1, 5) {
		t.Fatal("carried value 1<<32|5 marked rumor 5")
	}
	p.deliver(1, []phonecall.Message{{Tag: phonecall.TagHoldings, Rumor: true, IDs: []phonecall.NodeID{5}}})
	if !set.Has(1, 5) {
		t.Fatal("in-range id 5 was not merged")
	}
}
