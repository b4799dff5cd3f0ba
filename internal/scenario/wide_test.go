package scenario

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/rumorset"
	"repro/internal/trace"
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
// on the targets this package builds — the mask ledger, the set ledger and
// the closed target (a closed protocol's timeline) — on three identical
// networks: the live sets must agree everywhere, the two ledgers must agree
// on every rumor's live-informed count and on the lost injects, and only the
// events that need rumor state may fail on the closed target.
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
	targets := [3]Target{mask, wide, closed{nets[2]}}

	for _, step := range []struct {
		name     string
		ev       Event
		needs    bool  // needs rumor state: errors on the closed target
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
		for k, tg := range targets {
			err := step.ev.Apply(tg)
			if wantErr := step.needs && k == 2; (err != nil) != wantErr {
				t.Fatalf("%s on target %d: err = %v", step.name, k, err)
			}
			if nets[k].LiveCount() != step.live {
				t.Errorf("%s on target %d: %d live nodes, want %d", step.name, k, nets[k].LiveCount(), step.live)
			}
			for i := 0; i < n; i++ {
				if nets[k].IsFailed(i) != nets[0].IsFailed(i) {
					t.Errorf("%s: node %d failed=%v on target %d, %v on the mask ledger",
						step.name, i, nets[k].IsFailed(i), k, nets[0].IsFailed(i))
				}
			}
			if want := step.name == "Partition"; sels[k].Partitioned() != want {
				t.Errorf("%s on target %d: partitioned = %v", step.name, k, !want)
			}
		}
		for k, l := range []ledger{mask, wide} {
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

	// The zone events' own errors do not depend on the target either: on a
	// network without a selector every one of them fails.
	var bare [3]*phonecall.Network
	for k := range bare {
		if bare[k], err = phonecall.New(phonecall.Config{N: n, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	noTopology := [3]Target{
		newProtocol(AlgoPushPull, bare[0], phonecall.NewRumorTracker(bare[0])),
		newWideProtocol(AlgoPushPull, bare[1], set),
		closed{bare[2]},
	}
	for k, tg := range targets {
		if err := (ZoneOutage{Zone: zones}).Apply(tg); err == nil {
			t.Errorf("target %d: zone outage past the topology's zones applied", k)
		}
		for _, ev := range []Event{ZoneOutage{}, ZoneHeal{}, Partition{}, HealPartition{}} {
			if err := ev.Apply(noTopology[k]); err == nil {
				t.Errorf("target %d: %s applied without a topology", k, ev.Describe())
			}
		}
	}
}

// TestRunRejectsZonesOutsideTopology: the driver checks zone events
// against the installed topology up front, so an outage of a zone the
// topology lacks, or a partition without a topology, is an ErrSpec-typed
// error before round 1 rather than a failure when the event fires.
func TestRunRejectsZonesOutsideTopology(t *testing.T) {
	const n = 30
	topo, err := policy.ZoneTable(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	inject := InjectRumor{At: 1, Node: 0, Rumor: 0}
	for _, tc := range []struct {
		name string
		ev   Event
		topo *policy.Table
	}{
		{"zone past the topology", ZoneOutage{At: 3, Zone: 3}, topo},
		{"heal past the topology", ZoneHeal{At: 3, Zone: 7}, topo},
		{"negative zone", ZoneOutage{At: 3, Zone: -1}, topo},
		{"partition without topology", Partition{At: 3}, nil},
	} {
		ran := false
		obs := &cancelAfter{at: 1, cancel: func() { ran = true }}
		sc := Scenario{N: n, Rounds: 10, Events: []Event{inject, tc.ev}}
		_, err := Run(context.Background(), sc, Config{Seed: 1, Topology: tc.topo, Observer: obs})
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: got %v, want an ErrSpec-typed error", tc.name, err)
		}
		if ran {
			t.Errorf("%s: round 1 ran before the error", tc.name)
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

// wideProbe is the observer TestWideWorkerInvariance watches a run through:
// how many shards the engine really ran, and after every round the worst
// spread and how many live nodes hold every in-flight rumor.
type wideProbe struct {
	net      *phonecall.Network
	holdings phonecall.Holdings
	rounds   [][2]int
}

func (o *wideProbe) BindNetwork(net *phonecall.Network)           { o.net = net }
func (o *wideProbe) BindHoldings(h phonecall.Holdings)            { o.holdings = h }
func (o *wideProbe) BeginRound(int, phonecall.RoundInfo)          {}
func (o *wideProbe) ObserveCall(int, phonecall.Call)              {}
func (o *wideProbe) ObservePayload(int, phonecall.Message)        {}
func (o *wideProbe) ObserveResponse(int, phonecall.Message, bool) {}
func (o *wideProbe) ObserveDeliver(int, []phonecall.Message)      {}
func (o *wideProbe) EndRound(phonecall.RoundReport) {
	complete := 0
	for i := 0; i < o.net.N(); i++ {
		if !o.net.IsFailed(i) && o.holdings.HoldsAll(i) {
			complete++
		}
	}
	o.rounds = append(o.rounds, [2]int{o.holdings.WorstSpread(), complete})
}

// TestWideWorkerInvariance extends the engine's bit-identical-across-shards
// guarantee to the wide path, at a size where the engine really shards
// (n >= 4096; below that initEngine forces one worker): sparse rumor IDs
// streamed through a window smaller than their total so slots recycle, call
// loss, and a crash wave with a partial rejoin that straddles the shard
// boundaries. Totals, every phase, every rumor's fate and the per-round
// informed counts must not depend on the shard count.
func TestWideWorkerInvariance(t *testing.T) {
	const n, rumors, perRound = 4096, 256, 8
	events := []Event{Loss{At: 1, Rate: 0.02, Seed: 31}}
	for id := 0; id < rumors; id++ {
		events = append(events, InjectRumor{
			At:    1 + id/perRound,
			Node:  (id*7919 + 5) % n,
			Rumor: phonecall.RumorID(3 + 1013*id),
		})
	}
	var crashed []int
	for k := 0; k < 64; k++ {
		crashed = append(crashed, (k*n/64+n/128+k)%n, k*n/64) // mid-shard and on every boundary
	}
	events = append(events, CrashAt{At: 9, Nodes: crashed}, JoinAt{At: 17, Nodes: crashed[:64]})
	for _, algo := range Algorithms() {
		sc := Scenario{N: n, Rounds: 60, Algorithm: algo, Events: events, MaxInFlight: 208}
		var first Result
		var firstRounds [][2]int
		for _, workers := range []int{1, 2, 8} {
			probe := &wideProbe{}
			res, err := Run(context.Background(), sc, Config{Seed: 5, Workers: workers, Observer: probe})
			if err != nil {
				t.Fatal(err)
			}
			if got := probe.net.Workers(); got != workers {
				t.Fatalf("%s: asked for %d shards, the engine ran %d", algo, workers, got)
			}
			if res.RumorsExpired <= int64(sc.MaxInFlight) {
				t.Fatalf("%s: only %d rumors expired through a %d-slot window: slots never recycled",
					algo, res.RumorsExpired, sc.MaxInFlight)
			}
			if workers == 1 {
				first, firstRounds = res, probe.rounds
				continue
			}
			if res.Messages != first.Messages || res.Bits != first.Bits || res.RumorsExpired != first.RumorsExpired {
				t.Fatalf("%s workers=%d: %d msgs, %d bits, %d expired; workers=1: %d, %d, %d", algo, workers,
					res.Messages, res.Bits, res.RumorsExpired, first.Messages, first.Bits, first.RumorsExpired)
			}
			if len(res.Rumors) != len(first.Rumors) || len(probe.rounds) != len(firstRounds) {
				t.Fatalf("%s workers=%d: %d rumor fates over %d rounds, workers=1 had %d over %d",
					algo, workers, len(res.Rumors), len(probe.rounds), len(first.Rumors), len(firstRounds))
			}
			for j := range first.Rumors {
				if res.Rumors[j] != first.Rumors[j] {
					t.Fatalf("%s workers=%d rumor %d fate %+v differs from %+v",
						algo, workers, first.Rumors[j].Rumor, res.Rumors[j], first.Rumors[j])
				}
			}
			if !reflect.DeepEqual(res.ScenarioPhases, first.ScenarioPhases) {
				t.Fatalf("%s workers=%d: the per-phase trace differs from workers=1", algo, workers)
			}
			for r := range firstRounds {
				if probe.rounds[r] != firstRounds[r] {
					t.Fatalf("%s workers=%d round %d: (worst spread, complete nodes) = %v, workers=1 saw %v",
						algo, workers, r+1, probe.rounds[r], firstRounds[r])
				}
			}
		}
	}
}

// TestWideDeliverIgnoresUnreadableSenders pins what stands behind a holdings
// message on the set ledger: the sender's row snapshot of the current round
// and nothing else. A message whose sender does not resolve is dropped, and so
// is one whose sender took its last snapshot in an earlier round — the table
// changed since, and the slot that meant one rumor then means another now.
func TestWideDeliverIgnoresUnreadableSenders(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rumorset.New(4, 1) // one slot: the next rumor is bound to reuse it
	if err != nil {
		t.Fatal(err)
	}
	p := newWideProtocol(AlgoPushPull, net, set)
	if err := p.Inject(0, 5); err != nil {
		t.Fatal(err)
	}
	from := func(i int) []phonecall.Message {
		m := phonecall.SetView{Held: 1, Active: 1, SummaryBytes: 2}.Message(net)
		m.From = net.ID(i)
		return []phonecall.Message{m}
	}

	p.beginRound()
	p.deliver(1, from(0)) // node 0 sent nothing this round: no snapshot stands behind the message
	if set.Has(1, 5) {
		t.Fatal("a holdings message without a snapshot of this round marked a rumor")
	}
	if c := p.call(0); c.Kind != phonecall.Exchange || !p.payload(0).HasContent() {
		t.Fatal("node 0 holds a rumor and called without it")
	}
	stranger := from(0)
	stranger[0].From = 0 // no node has ID 0
	p.deliver(1, stranger)
	if set.Has(1, 5) {
		t.Fatal("a holdings message from an unknown sender marked a rumor")
	}
	p.deliver(1, []phonecall.Message{{From: net.ID(0), Tag: phonecall.TagHoldings + 1, Rumor: true}})
	if set.Has(1, 5) {
		t.Fatal("a message that is not a holdings message marked a rumor")
	}
	p.deliver(1, from(0))
	if !set.Has(1, 5) {
		t.Fatal("node 0's snapshot of this round was not merged")
	}
	p.endRound()

	// Rumor 5 retires and rumor 9 takes its slot, at a node that is not 0.
	p.retire(p.informed(nil))
	if err := p.Inject(2, 9); err != nil {
		t.Fatal(err)
	}
	p.beginRound()
	p.deliver(3, from(0)) // node 0's snapshot still has the slot's bit set — for rumor 5
	if set.Has(3, 9) {
		t.Fatal("last round's snapshot was merged across a table change: rumor 5's slot marked rumor 9")
	}
	p.response(2)
	p.deliver(3, from(2))
	if !set.Has(3, 9) {
		t.Fatal("node 2's snapshot of this round was not merged")
	}
	p.endRound()
}

// TestWideRoundDoesNotAllocate is the engine's TestZeroSteadyStateAllocs one
// layer up: after warm-up an observed round of the set ledger — the bracket,
// every snapshot and merge, the coordinator's convergence scan and an
// observer's WorstSpread — allocates nothing, sequential or sharded.
func TestWideRoundDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, workers int
	}{{"sequential", 512, 1}, {"sharded", 4096, 4}} {
		for _, algo := range Algorithms() {
			t.Run(tc.name+"/"+string(algo), func(t *testing.T) {
				const window = 128
				net, err := phonecall.New(phonecall.Config{N: tc.n, Seed: 3, Workers: tc.workers})
				if err != nil {
					t.Fatal(err)
				}
				set, err := rumorset.New(tc.n, window)
				if err != nil {
					t.Fatal(err)
				}
				p := newWideProtocol(algo, net, set)
				for r := 0; r < window; r++ {
					if err := p.Inject(r*31%tc.n, phonecall.RumorID(r*1009)); err != nil {
						t.Fatal(err)
					}
				}
				call, payload, response, deliver := p.call, p.payload, p.response, p.deliver
				var full []trace.RumorCount
				worst := 0
				round := func() {
					p.beginRound()
					net.ExecCalls(call, payload, response, deliver)
					worst = p.WorstSpread() // what run's tap asks of an observed round
					p.endRound()
					full = p.converged(full[:0], net.LiveCount())
				}
				// Warm up until every node holds (and so sends) everything: the
				// engine's arena is then as large as it gets. Then half the
				// nodes rejoin empty, so the measured rounds have rows to merge.
				for i := 0; worst < tc.n; i++ {
					if i == 80 {
						t.Fatalf("warm-up stuck: worst rumor at %d of %d nodes", worst, tc.n)
					}
					round()
				}
				if len(full) != window {
					t.Fatalf("the convergence scan found %d of the %d rumors every node holds", len(full), window)
				}
				var half []int
				for i := 1; i < tc.n; i += 2 {
					half = append(half, i)
				}
				p.Fail(half...)
				p.Revive(half...)
				before := p.WorstSpread()
				if avg := testing.AllocsPerRun(5, round); avg != 0 {
					t.Errorf("steady-state observed wide round allocates %.1f times, want 0", avg)
				}
				if before >= tc.n || worst <= before {
					t.Fatalf("the measured rounds merged nothing: worst rumor at %d of %d nodes before, %d after", before, tc.n, worst)
				}
			})
		}
	}
}

// TestWideChargesTheSentForm is the simulator half of the charge rule: over
// random held sets, dense and sparse to 2^32−1, a node's holdings message is
// charged the encoded length of the summary form a live node would send for
// the same IDs — never more than their delta varints.
func TestWideChargesTheSentForm(t *testing.T) {
	const n, window = 64, 96
	for _, dense := range []bool{true, false} {
		net, err := phonecall.New(phonecall.Config{N: n, Seed: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		set, err := rumorset.New(n, window)
		if err != nil {
			t.Fatal(err)
		}
		p := newWideProtocol(AlgoPushPull, net, set)
		rng := rand.New(rand.NewSource(9))
		for r := 0; r < window; r++ {
			id := rumorset.ID(rng.Uint32())
			if dense {
				id = math.MaxUint32 - rumorset.ID(r*2+rng.Intn(2))
			}
			if err := p.Inject(rng.Intn(n), phonecall.RumorID(id)); err != nil {
				t.Fatal(err)
			}
		}
		bitmaps := 0
		for r := 0; r < 6; r++ { // check every round as the rumors spread
			p.beginRound()
			for i := 0; i < n; i++ {
				v := p.digest(i)
				ids := set.AppendHeld(nil, i)
				var sum rumorset.Summary
				want := sum.SetIDs(ids)
				if v.Held != len(ids) || v.SummaryBytes != want || want != len(sum.Append(nil)) || want > rumorset.SummarySize(ids) {
					t.Fatalf("dense=%v round %d node %d: charged %d rumors in %d bytes; the %d ids encode to %d (varints %d)",
						dense, r, i, v.Held, v.SummaryBytes, len(ids), len(sum.Append(nil)), rumorset.SummarySize(ids))
				}
				if sum.Bitmap {
					bitmaps++
				}
			}
			net.ExecCalls(p.call, p.payload, p.response, p.deliver)
			p.endRound()
		}
		if dense != (bitmaps > 0) {
			t.Errorf("dense=%v: %d nodes charged for the bitmap form", dense, bitmaps)
		}
	}
}

// cancelAfter cancels its run's context when round at ends, and keeps the
// wide ledger it was bound to so the test can reach the set.
type cancelAfter struct {
	at     int
	cancel context.CancelFunc
	wide   *wideProtocol
}

func (c *cancelAfter) BindHoldings(h phonecall.Holdings)            { c.wide, _ = h.(*wideProtocol) }
func (c *cancelAfter) BeginRound(int, phonecall.RoundInfo)          {}
func (c *cancelAfter) ObserveCall(int, phonecall.Call)              {}
func (c *cancelAfter) ObservePayload(int, phonecall.Message)        {}
func (c *cancelAfter) ObserveResponse(int, phonecall.Message, bool) {}
func (c *cancelAfter) ObserveDeliver(int, []phonecall.Message)      {}
func (c *cancelAfter) EndRound(rep phonecall.RoundReport) {
	if rep.Round == c.at {
		c.cancel()
	}
}

// TestWideAbortReleasesView: a cancelled wide run aborts out of ExecCalls
// with the round's read view taken, and must still give it back — the set
// stays writable, so a Register returns instead of waiting on the view
// forever.
func TestWideAbortReleasesView(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelAfter{at: 2, cancel: cancel}
	sc := Scenario{
		N:           64,
		Rounds:      20,
		MaxInFlight: 4,
		Events:      []Event{InjectRumor{At: 1, Node: 0, Rumor: 0}, InjectRumor{At: 1, Node: 1, Rumor: 1 << 20}},
	}
	_, err := Run(ctx, sc, Config{Seed: 1, Workers: 2, Observer: obs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if obs.wide == nil {
		t.Fatal("the run was not on the rumor-set ledger")
	}
	done := make(chan error, 1)
	go func() { done <- obs.wide.set.Register(1 << 21) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Register blocked: the aborted round kept the set's read view")
	}
}
