package run

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// inject is a valid round-1 rumor injection for validation tables.
var inject = scenario.InjectRumor{At: 1, Node: 0, Rumor: 0}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"n too small", Spec{N: 1}},
		{"n at engine limit", Spec{N: 1 << 30}},
		{"negative payload", Spec{N: 100, PayloadBits: -1}},
		{"delta below minimum", Spec{N: 100, Delta: 4}},
		{"negative delta", Spec{N: 100, Delta: -64}},
		{"negative failures", Spec{N: 100, Failures: -5}},
		{"all nodes failed", Spec{N: 100, Failures: 100}},
		{"negative failure round", Spec{N: 100, FailureRound: -1}},
		{"negative loss", Spec{N: 100, LossRate: -0.1}},
		{"loss above one", Spec{N: 100, LossRate: 1.5}},
		{"negative rounds", Spec{N: 100, Rounds: -1}},
		{"unknown closed algorithm", Spec{N: 100, Algorithm: "bogus"}},
		{"round budget on a closed algorithm", Spec{N: 100, Rounds: 3}},
		{"round budget on closed lock-step", Spec{N: 100, Engine: EngineLockStep, Rounds: 3}},
		{"crash node out of range", Spec{N: 100,
			Events: []scenario.Event{scenario.CrashAt{At: 2, Nodes: []int{100}}}}},
		{"join node negative", Spec{N: 100,
			Events: []scenario.Event{scenario.JoinAt{At: 2, Nodes: []int{-1}}}}},
		{"event loss out of range", Spec{N: 100,
			Events: []scenario.Event{scenario.Loss{At: 2, Rate: 2}}}},
		{"inject node out of range", Spec{N: 100, Algorithm: "push", Rounds: 5,
			Events: []scenario.Event{scenario.InjectRumor{At: 1, Node: 100}}}},
		{"inject rumor past bitmask free-running", Spec{N: 100, Algorithm: "push", Rounds: 5,
			Engine: EngineFreeRunning,
			Events: []scenario.Event{scenario.InjectRumor{At: 1, Node: 0, Rumor: 64}}}},
		{"negative stream total", Spec{N: 100, Engine: EngineFreeRunning, StreamTotal: -1}},
		{"negative stream rate", Spec{N: 100, Engine: EngineFreeRunning, StreamRate: -1}},
		{"stream rate without total", Spec{N: 100, Engine: EngineFreeRunning, StreamRate: 2}},
		{"negative window", Spec{N: 100, MaxInFlight: -1}},
		{"stream on simulator", Spec{N: 100, StreamTotal: 16}},
		{"stream on lock-step", Spec{N: 100, Engine: EngineLockStep, StreamTotal: 16}},
		{"window without wide workload", Spec{N: 100, MaxInFlight: 8}},
		{"window on lock-step", Spec{N: 100, Engine: EngineLockStep, MaxInFlight: 8}},
		{"window without stream free-running", Spec{N: 100, Engine: EngineFreeRunning, MaxInFlight: 8}},
		{"stream alongside inject events", Spec{N: 100, Engine: EngineFreeRunning,
			StreamTotal: 16, Rounds: 50, Events: []scenario.Event{inject}}},
		{"byzantine event on wide path", Spec{N: 100, Algorithm: "push", Rounds: 5, MaxInFlight: 8,
			Events: []scenario.Event{inject, scenario.CorruptAt{At: 2, Nodes: []int{1},
				Adversary: scenario.AdversarySpec{Kind: scenario.AdvLiar}}}}},
		{"nil event", Spec{N: 100, Events: []scenario.Event{nil}}},
		{"multi-rumor without budget", Spec{N: 100, Algorithm: "push",
			Events: []scenario.Event{inject}}},
		{"multi-rumor with closed algorithm", Spec{N: 100, Algorithm: "cluster2", Rounds: 5,
			Events: []scenario.Event{inject}}},
		{"multi-rumor on lock-step", Spec{N: 100, Algorithm: "push", Rounds: 5,
			Engine: EngineLockStep, Events: []scenario.Event{inject}}},
		{"transport on simulator", Spec{N: 100, Transport: "chan"}},
		{"frame drop on simulator", Spec{N: 100, Drop: 0.5}},
		{"drop above one", Spec{N: 100, Engine: EngineFreeRunning, Drop: 1.5}},
		{"negative latency", Spec{N: 100, Engine: EngineFreeRunning, Latency: -5 * time.Millisecond}},
		{"negative jitter", Spec{N: 100, Engine: EngineFreeRunning, Jitter: -3 * time.Millisecond}},
		{"negative latency and jitter", Spec{N: 100, Engine: EngineFreeRunning, Latency: -1, Jitter: -1}},
		{"frame drop on lock-step", Spec{N: 100, Engine: EngineLockStep, Drop: 0.5}},
		{"latency on lock-step", Spec{N: 100, Engine: EngineLockStep, Latency: time.Millisecond}},
		{"udp on lock-step", Spec{N: 100, Engine: EngineLockStep, Transport: "udp"}},
		{"closed algorithm free-running", Spec{N: 100, Engine: EngineFreeRunning, Algorithm: "cluster2"}},
		{"unknown transport free-running", Spec{N: 100, Engine: EngineFreeRunning, Transport: "bogus"}},
		{"shaped udp free-running", Spec{N: 100, Engine: EngineFreeRunning, Transport: "udp", Drop: 0.5}},
		{"negative skew", Spec{N: 100, Engine: EngineFreeRunning, MaxSkew: -1}},
		{"unknown engine", Spec{N: 100, Engine: Engine(99)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Execute(context.Background(), tc.spec)
			if err == nil {
				t.Fatalf("spec %+v accepted", tc.spec)
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("error not ErrInvalidConfig: %v", err)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"zero-value defaults", Spec{N: 100}},
		{"closed with timeline", Spec{N: 100,
			Events: []scenario.Event{scenario.CrashAt{At: 2, Nodes: []int{1}}}}},
		{"multi-rumor", Spec{N: 100, Algorithm: "push-pull", Rounds: 10,
			Events: []scenario.Event{inject}}},
		{"lock-step", Spec{N: 100, Engine: EngineLockStep, Transport: "chan"}},
		{"free-running", Spec{N: 100, Engine: EngineFreeRunning, Drop: 0.2, Rounds: 40}},
		{"free-running with spec workers", Spec{N: 100, Engine: EngineFreeRunning, Workers: 4, Rounds: 40}},
		{"wide inject auto-selects rumor set", Spec{N: 100, Algorithm: "push", Rounds: 10,
			Events: []scenario.Event{scenario.InjectRumor{At: 1, Node: 0, Rumor: 1 << 20}}}},
		{"wide window on simulator", Spec{N: 100, Algorithm: "push", Rounds: 10, MaxInFlight: 8,
			Events: []scenario.Event{inject}}},
		{"free-running stream", Spec{N: 100, Engine: EngineFreeRunning,
			StreamTotal: 256, StreamRate: 4, MaxInFlight: 32}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatalf("valid spec rejected: %v", err)
			}
		})
	}
}

// TestFailureEvents pins how Failures and FailureRound reach the engines:
// the oblivious selection fails before round 1 when FailureRound ≤ 1, and
// the same selection becomes a CrashAt at FailureRound after the spec's own
// timeline otherwise.
func TestFailureEvents(t *testing.T) {
	own := []scenario.Event{inject}
	want := failure.Random{Count: 10, Seed: 4}.Select(100)
	for _, round := range []int{0, 1} {
		s := Spec{N: 100, Failures: 10, FailureSeed: 4, FailureRound: round, Events: own}
		if start, events := s.failureEvents(); !reflect.DeepEqual(start, want) || !reflect.DeepEqual(events, own) {
			t.Fatalf("FailureRound %d: start %v, events %v", round, start, events)
		}
	}
	s := Spec{N: 100, Failures: 10, FailureSeed: 4, FailureRound: 7, Events: own}
	wave := []scenario.Event{inject, scenario.CrashAt{At: 7, Nodes: want}}
	if start, events := s.failureEvents(); start != nil || !reflect.DeepEqual(events, wave) {
		t.Fatalf("FailureRound 7: start %v, events %v", start, events)
	}
	if start, events := (Spec{N: 100, FailureRound: 7, Events: own}).failureEvents(); start != nil || !reflect.DeepEqual(events, own) {
		t.Fatalf("no failures: start %v, events %v", start, events)
	}
}

// TestInjectValidationAcrossEngines pins the cross-engine bugfix: a bad
// InjectRumor is rejected identically on all three engines, before anything
// runs, with an error satisfying both errors.Is(ErrInvalidConfig) (the run
// boundary) and errors.Is(scenario.ErrSpec) (the shared per-event authority)
// — never a silent IgnoredEvents bump at fire time.
func TestInjectValidationAcrossEngines(t *testing.T) {
	engines := []Engine{EngineSimulator, EngineLockStep, EngineFreeRunning}
	bad := map[string]scenario.Event{
		"node past network":  scenario.InjectRumor{At: 1, Node: 100, Rumor: 0},
		"node negative":      scenario.InjectRumor{At: 1, Node: -1, Rumor: 0},
		"rumor past bitmask": scenario.InjectRumor{At: 1, Node: 0, Rumor: 64},
	}
	for _, engine := range engines {
		for name, ev := range bad {
			t.Run(engine.String()+"/"+name, func(t *testing.T) {
				spec := Spec{
					N: 100, Algorithm: "push", Rounds: 5,
					Engine: engine,
					Events: []scenario.Event{ev},
				}
				if engine == EngineSimulator && name == "rumor past bitmask" {
					// Rumor 64 legitimately selects the wide rumor-set path on
					// the simulator; the bitmask bound applies to the others.
					return
				}
				_, err := Execute(context.Background(), spec)
				if err == nil {
					t.Fatalf("%s accepted %s", engine, name)
				}
				if !errors.Is(err, ErrInvalidConfig) {
					t.Fatalf("%s: error not ErrInvalidConfig: %v", engine, err)
				}
				// A wide inject on lock-step is rejected for the engine (no
				// multi-rumor at all) rather than the event, so the ErrSpec
				// layer only applies elsewhere.
				if !(engine == EngineLockStep && name == "rumor past bitmask") &&
					!errors.Is(err, scenario.ErrSpec) {
					t.Fatalf("%s: event error not scenario.ErrSpec: %v", engine, err)
				}
			})
		}
	}
}

// TestCancelSimulator cancels mid-run from the observer (which runs on the
// coordinator between rounds) and expects the context error promptly.
func TestCancelSimulator(t *testing.T) {
	testCancelSynchronous(t, EngineSimulator)
}

func TestCancelLockStep(t *testing.T) {
	testCancelSynchronous(t, EngineLockStep)
}

func testCancelSynchronous(t *testing.T, engine Engine) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	spec := Spec{
		N:         2000,
		Algorithm: "cluster2",
		Seed:      1,
		Engine:    engine,
		Observer: func(st RoundStats) {
			rounds = st.Round
			if st.Round == 3 {
				cancel()
			}
		},
	}
	if engine == EngineSimulator {
		spec.Workers = 1
	}
	_, err := Execute(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The abort happens before the round after the cancellation does any
	// work: the observer must not have seen more than one further round.
	if rounds > 4 {
		t.Fatalf("run kept executing after cancel: saw round %d", rounds)
	}
}

// TestCancelFreeRunning cancels a free-running execution that would
// otherwise spin through a huge budget (100% frame loss: it can never
// converge) and expects a prompt stop.
func TestCancelFreeRunning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Execute(ctx, Spec{
		N:        64,
		Seed:     1,
		Engine:   EngineFreeRunning,
		Rounds:   1 << 30,
		Drop:     1.0,
		DropSeed: 7,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("free-running cancel not prompt: took %v", elapsed)
	}
}

// TestDeadlineSimulator exercises the deadline path: an already-expired
// context must abort before the first round.
func TestDeadlineSimulator(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := Execute(ctx, Spec{N: 500, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestScenarioCancel cancels the multi-rumor driver mid-run.
func TestScenarioCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := Spec{
		N:         2000,
		Algorithm: "push-pull",
		Seed:      1,
		Rounds:    200,
		Events:    []scenario.Event{inject},
		Observer: func(st RoundStats) {
			if st.Round == 2 {
				cancel()
			}
		},
	}
	_, err := Execute(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEngineAgreement pins what the engines must agree on through the
// unified layer: identical results on both synchronous engines, and one
// answer to "all informed" when a crash wave empties the population — the
// closed algorithms, the scenario driver on either ledger and the
// free-running runtime each fill the same trace.Result, and none of them may
// call a run with nobody left alive converged.
func TestEngineAgreement(t *testing.T) {
	t.Run("sim equals lock-step", func(t *testing.T) {
		base := Spec{N: 600, Algorithm: "cluster2", Seed: 5, Workers: 1}
		sim, err := Execute(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		lockSpec := base
		lockSpec.Workers = 0
		lockSpec.Engine = EngineLockStep
		lock, err := Execute(context.Background(), lockSpec)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Engine != "simulator" || lock.Engine != "lock-step" {
			t.Fatalf("engines mislabeled: %v vs %v", sim.Engine, lock.Engine)
		}
		sim.Engine = lock.Engine
		if !reflect.DeepEqual(sim, lock) {
			t.Fatalf("sim and lock-step diverge:\n%+v\n%+v", sim, lock)
		}
	})

	const n = 64
	everyone := make([]int, n)
	for i := range everyone {
		everyone[i] = i
	}
	crash := scenario.CrashAt{At: 3, Nodes: everyone}
	for name, spec := range map[string]Spec{
		"crash everyone/closed":       {Events: []scenario.Event{crash}},
		"crash everyone/scenario":     {Events: []scenario.Event{inject, crash}, Rounds: 12},
		"crash everyone/scenario set": {Events: []scenario.Event{inject, crash}, Rounds: 12, MaxInFlight: 4},
		"crash everyone/free-running": {Events: []scenario.Event{inject, crash}, Rounds: 12, Engine: EngineFreeRunning},
	} {
		t.Run(name, func(t *testing.T) {
			spec.N, spec.Algorithm, spec.Seed = n, "push-pull", 1
			res, err := Execute(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Live != 0 || res.AllInformed {
				t.Fatalf("live %d informed %d all-informed %v: an emptied population must not read as converged",
					res.Live, res.Informed, res.AllInformed)
			}
		})
	}

	// A rumor injected at a crashed node is lost on every engine: the node
	// never acts while dead — not even out of a skew wait it was parked in
	// when the crash fired — and rejoins uninformed, so rumor 1 reaches nobody.
	lost := []scenario.Event{
		inject,
		scenario.CrashAt{At: 2, Nodes: []int{3}},
		scenario.InjectRumor{At: 3, Node: 3, Rumor: 1},
		scenario.JoinAt{At: 6, Nodes: []int{3}},
	}
	for name, spec := range map[string]Spec{
		"lost inject/scenario":     {},
		"lost inject/scenario set": {MaxInFlight: 4},
		"lost inject/free-running": {Engine: EngineFreeRunning},
	} {
		t.Run(name, func(t *testing.T) {
			spec.N, spec.Algorithm, spec.Seed, spec.Rounds, spec.Events = 32, "push-pull", 1, 12, lost
			res, err := Execute(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.LostInjects != 1 || res.AllInformed {
				t.Fatalf("lost injects %d, all-informed %v (informed %d of %d live): want 1 and not converged",
					res.LostInjects, res.AllInformed, res.Informed, res.Live)
			}
		})
	}

	// Zone and partition events act through the topology's selector on every
	// engine: an outage takes exactly its zone down until the zone heals, a
	// partition takes nobody down, and once either heals the rumor reaches
	// everyone. The free-running monitor may fire an outage and its heal
	// between two frontier reports, so only the synchronous ledgers are held
	// to the exact lowest live count.
	const zn = 60
	topo, err := policy.ZoneTable(zn, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		events  []scenario.Event
		minLive int
	}{
		"zone outage": {[]scenario.Event{inject, scenario.ZoneOutage{At: 3, Zone: 1}, scenario.ZoneHeal{At: 6, Zone: 1}},
			zn - len(topo.ZoneMembers(1))},
		"partition": {[]scenario.Event{inject, scenario.Partition{At: 2}, scenario.HealPartition{At: 6}}, zn},
	} {
		for engine, spec := range map[string]Spec{
			"scenario":     {},
			"scenario set": {MaxInFlight: 4},
			"free-running": {Engine: EngineFreeRunning},
		} {
			t.Run(name+"/"+engine, func(t *testing.T) {
				minLive := zn
				spec.N, spec.Algorithm, spec.Seed, spec.Rounds = zn, "push-pull", 1, 40
				spec.Events, spec.Topology = tc.events, topo
				spec.Observer = func(st RoundStats) { minLive = min(minLive, st.Live) }
				res, err := Execute(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Live != zn || !res.AllInformed || res.IgnoredEvents != 0 || res.UnfiredEvents != 0 {
					t.Fatalf("live %d, all-informed %v, ignored %d, unfired %d: want %d live, converged, every event applied",
						res.Live, res.AllInformed, res.IgnoredEvents, res.UnfiredEvents, zn)
				}
				if minLive < tc.minLive || spec.Engine != EngineFreeRunning && minLive != tc.minLive {
					t.Fatalf("lowest live count %d, want %d", minLive, tc.minLive)
				}
			})
		}
	}
}

// TestObserverStreamsEveryRound checks the observer sees every executed
// round in order with the live population attached.
func TestObserverStreamsEveryRound(t *testing.T) {
	var seen []RoundStats
	out, err := Execute(context.Background(), Spec{
		N:         500,
		Algorithm: "push-pull",
		Seed:      2,
		Workers:   1,
		Observer:  func(st RoundStats) { seen = append(seen, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != out.Rounds {
		t.Fatalf("observer saw %d rounds, result has %d", len(seen), out.Rounds)
	}
	for i, st := range seen {
		if st.Round != i+1 {
			t.Fatalf("round %d streamed out of order: %+v", i+1, st)
		}
		if st.Live != 500 {
			t.Fatalf("round %d live = %d, want 500", st.Round, st.Live)
		}
	}
}

// TestFreeRunnerOutcome smoke-tests what the free-running runtime fills in:
// the header Execute's callers rely on, convergence, frontier observer ticks.
func TestFreeRunnerOutcome(t *testing.T) {
	ticks := 0
	out, err := Execute(context.Background(), Spec{
		N:        300,
		Seed:     4,
		Engine:   EngineFreeRunning,
		Observer: func(st RoundStats) { ticks++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != "free-running" || out.Algorithm != "push-pull" || out.N != 300 || out.Seed != 4 {
		t.Fatalf("result header = %q %q n=%d seed=%d", out.Engine, out.Algorithm, out.N, out.Seed)
	}
	if !out.AllInformed || out.Informed != out.Live || out.CompletionRound == 0 || out.CompletionRound > out.Rounds {
		t.Fatalf("free run did not converge: %+v", out)
	}
	if want := float64(out.Messages+out.ControlMessages) / 300; out.MessagesPerNode != want || out.Wall <= 0 {
		t.Fatalf("msgs/node = %v want %v, wall %v", out.MessagesPerNode, want, out.Wall)
	}
	if ticks == 0 {
		t.Fatal("frontier observer never ticked")
	}
}

// TestScenarioOutcomeMapping checks what the scenario driver fills in:
// rumors, phases, worst-rumor informedness and last-rumor completion.
func TestScenarioOutcomeMapping(t *testing.T) {
	out, err := Execute(context.Background(), Spec{
		N:         800,
		Algorithm: "push-pull",
		Seed:      3,
		Rounds:    40,
		Workers:   1,
		Events: []scenario.Event{
			scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
			scenario.InjectRumor{At: 5, Node: 7, Rumor: 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rumors) != 2 {
		t.Fatalf("want 2 rumor outcomes, got %+v", out.Rumors)
	}
	if len(out.ScenarioPhases) == 0 {
		t.Fatal("no scenario phases recorded")
	}
	if !out.AllInformed || out.CompletionRound == 0 {
		t.Fatalf("both rumors should complete at n=800 within 40 rounds: %+v", out)
	}
	if want := max(out.Rumors[0].CompletionRound, out.Rumors[1].CompletionRound); out.CompletionRound != want {
		t.Fatalf("completion round %d, want the last rumor's %d", out.CompletionRound, want)
	}
	if out.Informed != out.Live {
		t.Fatalf("informed %d want live %d", out.Informed, out.Live)
	}
	if out.Engine != "simulator" || out.Algorithm != "push-pull" || out.Rounds != 40 {
		t.Fatalf("result header = %q %q rounds=%d", out.Engine, out.Algorithm, out.Rounds)
	}
}

// TestScenarioObservabilityOnBothLedgers pins what the scenario driver's
// observers see: whichever holdings representation the timeline selects, the
// informed gauges exist and end on the outcome's own number, and every JSONL
// round record carries a real informed count (-1 is for runs that track no
// rumor). The set-ledger half fails on a driver that binds observers to the
// mask only.
func TestScenarioObservabilityOnBothLedgers(t *testing.T) {
	const n, zones = 600, 3
	topo, err := policy.ZoneTable(n, zones)
	if err != nil {
		t.Fatal(err)
	}
	for name, window := range map[string]int{"mask": 0, "set": 4} {
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			var trace bytes.Buffer
			out, err := Execute(context.Background(), Spec{
				N: n, Algorithm: "push-pull", Seed: 5, Rounds: 30, Workers: 2,
				LossRate: 0.02, LossSeed: 9, Topology: topo, MaxInFlight: window,
				Events: []scenario.Event{
					scenario.InjectRumor{At: 2, Node: 0, Rumor: 0},
					scenario.InjectRumor{At: 4, Node: 7, Rumor: 3},
				},
				Telemetry: reg, TraceWriter: &trace,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !out.AllInformed || out.Informed != n {
				t.Fatalf("run did not converge: %+v", out)
			}
			got := map[string]float64{}
			for _, s := range reg.Snapshot() {
				got[s.ID()] = s.Value
			}
			if v, ok := got["repro_informed_nodes"]; !ok || v != float64(out.Informed) {
				t.Errorf("repro_informed_nodes = %v (present=%v), want %d", v, ok, out.Informed)
			}
			for _, id := range []string{`{zone="0"}`, `{zone="1"}`, `{zone="2"}`} {
				if v, ok := got["repro_zone_informed_nodes"+id]; !ok || v != n/zones {
					t.Errorf("repro_zone_informed_nodes%s = %v (present=%v), want %d", id, v, ok, n/zones)
				}
			}
			rounds := 0
			for dec := json.NewDecoder(&trace); dec.More(); {
				var rec traceRoundRecord
				if err := dec.Decode(&rec); err != nil {
					t.Fatal(err)
				}
				if rec.Type != "round" {
					continue
				}
				rounds++
				// Nothing is in flight in round 1; from the first inject on the
				// worst-spread rumor has at least its injection node.
				if inFlight := rec.Round >= 2; rec.Informed < 0 || rec.Informed > n || (rec.Informed > 0) != inFlight {
					t.Errorf("round %d record carries informed=%d", rec.Round, rec.Informed)
				}
			}
			if rounds != out.Rounds {
				t.Errorf("%d round records for %d rounds", rounds, out.Rounds)
			}
		})
	}
}

// TestNoTapWithoutConsumers locks the telemetry-off path: a spec that opts
// into no observability builds no tap and installs no engine observer, so
// un-instrumented runs stay on the engines' zero-allocation round loop
// (phonecall's TestZeroSteadyStateAllocs covers the loop itself). The tap a
// spec with a consumer composes is round-only, not a phonecall.CallObserver,
// so instrumented rounds stay on that loop too.
func TestNoTapWithoutConsumers(t *testing.T) {
	s := Spec{N: 100}
	if tp := newTap(s); tp != nil {
		t.Fatalf("bare spec built a tap: %+v", tp)
	}
	if obs := s.tap.engineObserver(); obs != nil {
		t.Fatalf("bare spec installed an engine observer: %T", obs)
	}
	s.Observer = func(RoundStats) {}
	s.tap = newTap(s)
	obs := s.tap.engineObserver()
	if s.tap == nil || obs == nil {
		t.Fatal("observer spec did not compose a tap")
	}
	if _, ok := obs.(phonecall.CallObserver); ok {
		t.Fatal("the tap is a CallObserver: every observed round would leave the engine's bare path")
	}
}
