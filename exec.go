package repro

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/policy"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Run executes one gossip workload over n nodes, configured by functional
// options, and returns the unified Report. It is the single composable entry
// point over the repository's three engines:
//
//   - OnSimulator (the default): the exact sharded phone-call simulator.
//   - OnLockStep: every node as its own goroutine exchanging wire frames in
//     barrier lock-step — results bit-identical to the simulator.
//   - OnFreeRunning: local round clocks with bounded skew, convergence
//     detected by a completion monitor.
//
// The workload follows from the options: a closed broadcast algorithm by
// default, the steppable multi-rumor driver when the timeline injects rumors
// (WithRumors, WithTimeline, WithScenarioSpec). Cancellation and deadlines
// on ctx stop all three engines promptly between rounds, returning ctx's
// error. Invalid or contradictory options are rejected before anything runs,
// with errors satisfying errors.Is(err, ErrInvalidConfig).
//
// A scenario spec (WithScenarioSpec / WithScenarioFile) fixes its own
// network size; pass n = 0 to adopt it, or the same value to confirm it.
// Option order is first-wins only for errors — later options otherwise
// override earlier ones, so CLI flags can be layered over a spec.
func Run(ctx context.Context, n int, opts ...Option) (Report, error) {
	s := settings{}
	for _, o := range opts {
		if o.apply != nil {
			o.apply(&s)
		}
	}
	if s.err != nil {
		return Report{}, s.err
	}
	if s.specN > 0 {
		if n > 0 && n != s.specN {
			return Report{}, fmt.Errorf("%w: n = %d conflicts with the scenario spec's n = %d (the spec's event node indexes are relative to its own size)",
				ErrInvalidConfig, n, s.specN)
		}
		n = s.specN
	}
	s.spec.N = n
	if s.topoSpec != nil {
		tab, err := s.topoSpec.Build(n)
		if err != nil {
			return Report{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		s.spec.Topology = tab
	}
	for _, req := range s.adversaries {
		ev, err := CorruptAt{
			At:       1,
			Nodes:    PickRandomNodes(n, req.count, req.seed),
			Behavior: req.behavior,
			Seed:     req.seed,
		}.event()
		if err != nil {
			return Report{}, err
		}
		s.spec.Events = append(s.spec.Events, ev)
	}
	res, err := run.Execute(ctx, s.spec)
	if err != nil {
		return Report{}, err
	}
	rep := fromOutcome(res)
	if s.spec.Telemetry != nil {
		rep.snapshot = publicSamples(s.spec.Telemetry.Snapshot())
	}
	return rep, nil
}

// settings is the mutable state the options build up.
type settings struct {
	spec        run.Spec
	specN       int                  // network size fixed by a scenario spec (0: none)
	adversaries []adversaryReq       // WithAdversaries requests, resolved once n is known
	topoSpec    *policy.TopologySpec // WithTopologyFile spec, built once n is known
	err         error                // first option error
}

// adversaryReq is one WithAdversaries request. The node choice needs the
// network size, which Run only knows after all options applied, so the
// request is queued and expanded into a CorruptAt there.
type adversaryReq struct {
	behavior Adversary
	count    int
	seed     uint64
}

// fail records the first option error.
func (s *settings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Option configures one aspect of a Run. Options are applied in order; the
// zero Option is a no-op.
type Option struct {
	apply func(*settings)
}

// WithAlgorithm selects the protocol. Closed broadcast algorithms (the
// default, AlgoCluster2) run on the simulator and lock-step engines; the
// steppable protocols (AlgoPush, AlgoPull, AlgoPushPull) drive multi-rumor
// timelines and the free-running engine.
func WithAlgorithm(a Algorithm) Option {
	return Option{func(s *settings) { s.spec.Algorithm = string(a) }}
}

// WithSeed makes the execution reproducible: identical options and seeds
// give identical results on the simulator and lock-step engines.
func WithSeed(seed uint64) Option {
	return Option{func(s *settings) { s.spec.Seed = seed }}
}

// WithWorkers sets the simulator's engine shard count (default: GOMAXPROCS).
// Results are bit-identical for any value.
func WithWorkers(workers int) Option {
	return Option{func(s *settings) { s.spec.Workers = workers }}
}

// WithDelta bounds per-round communications for AlgoClusterPushPull
// (default 1024, minimum MinDelta).
func WithDelta(delta int) Option {
	return Option{func(s *settings) { s.spec.Delta = delta }}
}

// WithPayloadBits sets the rumor size b in bits (default 256).
func WithPayloadBits(bits int) Option {
	return Option{func(s *settings) { s.spec.PayloadBits = bits }}
}

// WithFailures fails count nodes chosen by the oblivious random adversary
// driven by seed — before round 1, or at the start of a later round when
// combined with WithFailureRound.
func WithFailures(count int, seed uint64) Option {
	return Option{func(s *settings) { s.spec.Failures = count; s.spec.FailureSeed = seed }}
}

// WithFailureRound defers the WithFailures adversary to a timed crash wave
// striking at the start of the given round (> 1) — mid-execution churn
// instead of the paper's start-time failures.
func WithFailureRound(round int) Option {
	return Option{func(s *settings) { s.spec.FailureRound = round }}
}

// WithLoss drops every call independently with the given probability from
// round 1 on (oblivious per-call loss, charged per the live-participant
// rule); seed drives the drop decisions independently of the execution seed.
func WithLoss(rate float64, seed uint64) Option {
	return Option{func(s *settings) { s.spec.LossRate = rate; s.spec.LossSeed = seed }}
}

// WithTimeline appends events to the execution's dynamic-network timeline:
// crash waves, rejoins, loss changes and rumor injections applied between
// rounds while the protocol executes. A timeline that injects at least one
// rumor runs the steppable multi-rumor driver and needs WithRounds.
func WithTimeline(events ...TimelineEvent) Option {
	return Option{func(s *settings) {
		for _, ev := range events {
			if ev == nil {
				s.fail(fmt.Errorf("%w: nil timeline event", ErrInvalidConfig))
				return
			}
			internal, err := ev.event()
			if err != nil {
				s.fail(err)
				return
			}
			s.spec.Events = append(s.spec.Events, internal)
		}
	}}
}

// WithRumors injects the given rumors — shorthand for WithTimeline with only
// InjectRumor events. At least one rumor switches the execution to the
// multi-rumor driver.
func WithRumors(rumors ...InjectRumor) Option {
	events := make([]TimelineEvent, 0, len(rumors))
	for _, r := range rumors {
		events = append(events, r)
	}
	return WithTimeline(events...)
}

// WithAdversaries corrupts count nodes, chosen by the oblivious random
// selection driven by seed, with the given Byzantine behavior from round 1
// on — the corruption analogue of WithFailures. The same seed drives the
// behavior's misbehavior stream. For scheduled, targeted or mixed
// corruption (an eclipse with a victim set, waves of liars), build CorruptAt
// events with WithTimeline or Infiltrate instead.
func WithAdversaries(behavior Adversary, count int, seed uint64) Option {
	return Option{func(s *settings) {
		if count <= 0 {
			s.fail(fmt.Errorf("%w: WithAdversaries needs a positive count (got %d)", ErrInvalidConfig, count))
			return
		}
		s.adversaries = append(s.adversaries, adversaryReq{behavior: behavior, count: count, seed: seed})
	}}
}

// WithRounds sets the explicit round budget for multi-rumor timelines and
// the free-running engine. Closed broadcast algorithms terminate on their
// own; a budget on one is rejected with ErrInvalidConfig.
func WithRounds(rounds int) Option {
	return Option{func(s *settings) { s.spec.Rounds = rounds }}
}

// WithRumorStream puts a free-running run (OnFreeRunning) in continuous
// rumor-stream mode: instead of a timeline seeding rumors, the runtime's
// monitor injects total rumors — rate per frontier round (<= 0: 1), each at
// a live node — through a bounded window of at most maxInFlight concurrently
// active rumors (<= 0: min(total, 1024)). Injection stalls while the window
// is full (Report.InjectionStalls counts the backpressure) and converged
// rumors are garbage-collected to recycle window slots, so total may vastly
// exceed the window. A stream replaces InjectRumor events and uses the
// steppable protocols; the run ends when every rumor converged (or the
// round budget runs out).
func WithRumorStream(rate float64, total, maxInFlight int) Option {
	return Option{func(s *settings) {
		s.spec.StreamRate = rate
		s.spec.StreamTotal = total
		s.spec.MaxInFlight = maxInFlight
	}}
}

// WithMaxInFlight bounds the concurrently active rumors of the scalable
// rumor-set layer: on the simulator it forces a rumor-injecting timeline
// onto the wide rumor-set path with the given window (IDs >= 64 select wide
// on their own, sizing the window to the distinct rumor count); on the
// free-running engine it is the stream window, as set by WithRumorStream's
// third argument.
func WithMaxInFlight(window int) Option {
	return Option{func(s *settings) { s.spec.MaxInFlight = window }}
}

// WithScenarioSpec configures the run from a JSON scenario spec (the format
// of cmd/gossip -spec and internal/scenario): network size, round budget,
// algorithm, seed, payload size, workers, and the full event timeline
// including generators. The spec fixes the network size — pass n = 0 to Run
// to adopt it. Later options override the spec's scalar fields.
func WithScenarioSpec(data []byte) Option {
	return Option{func(s *settings) {
		sp, err := scenario.ParseSpec(data)
		if err != nil {
			s.fail(fmt.Errorf("%w: %v", ErrInvalidConfig, err))
			return
		}
		sc, cfg, err := sp.Build()
		if err != nil {
			s.fail(fmt.Errorf("%w: %v", ErrInvalidConfig, err))
			return
		}
		s.specN = sc.N
		s.spec.Rounds = sc.Rounds
		s.spec.Algorithm = string(sc.Algorithm)
		s.spec.ScenarioName = sc.Name
		s.spec.Events = append(s.spec.Events, sc.Events...)
		s.spec.MaxInFlight = sc.MaxInFlight
		s.spec.Seed = cfg.Seed
		s.spec.PayloadBits = cfg.PayloadBits
		s.spec.Workers = cfg.Workers
	}}
}

// WithScenarioFile is WithScenarioSpec reading the JSON spec from a file.
func WithScenarioFile(path string) Option {
	return Option{func(s *settings) {
		data, err := os.ReadFile(path)
		if err != nil {
			s.fail(fmt.Errorf("%w: scenario spec: %v", ErrInvalidConfig, err))
			return
		}
		WithScenarioSpec(data).apply(s)
	}}
}

// RoundInfo is one executed round as streamed to a WithObserver callback:
// the engine's per-round traffic report plus the live population when the
// round ended. On the free-running engine there is no global round; the
// observer streams frontier advances instead (Round is the frontier, the
// traffic fields are zero).
type RoundInfo struct {
	Round    int
	Live     int
	Messages int64
	Bits     int64
	MaxComms int
}

// Observer receives per-round statistics while a run executes. It is
// invoked on the goroutine that called Run, on every engine (the free-running
// engine's frontier monitor runs there too) — it must be fast and must not
// call back into the run.
type Observer func(RoundInfo)

// WithObserver streams per-round statistics to obs while the run executes.
// Results and metrics are unchanged by observation.
func WithObserver(obs Observer) Option {
	return Option{func(s *settings) {
		if obs == nil {
			s.spec.Observer = nil
			return
		}
		s.spec.Observer = func(st run.RoundStats) { obs(RoundInfo(st)) }
	}}
}

// Transport selects the live engines' frame transport.
type Transport string

// The transports: an in-process channel mesh (the default, supports
// deterministic frame loss and link delay) and loopback UDP sockets
// (free-running only).
const (
	TransportChannel Transport = "chan"
	TransportUDP     Transport = "udp"
)

// OnSimulator runs the workload on the sharded simulator engine — the
// default.
func OnSimulator() Option {
	return Option{func(s *settings) { s.spec.Engine = run.EngineSimulator; s.spec.Transport = "" }}
}

// OnLockStep runs the workload with every node as its own goroutine
// exchanging wire-encoded frames over the transport in barrier-synchronized
// lock-step. Results are bit-identical to the simulator (the internal/live
// conformance guarantee); churn, loss and timelines apply unchanged. The
// empty transport selects TransportChannel.
func OnLockStep(t Transport) Option {
	return Option{func(s *settings) {
		s.spec.Engine = run.EngineLockStep
		s.spec.Transport = string(t)
	}}
}

// OnFreeRunning runs the workload on the free-running live runtime: local
// round clocks bounded by skew (<= 0: default 3), a per-node round budget
// (<= 0: derived from n), convergence detected by the completion monitor,
// timeline events fired as the round frontier passes them. Free-running
// workloads use the steppable protocols (default AlgoPushPull).
func OnFreeRunning(skew, budget int) Option {
	return Option{func(s *settings) {
		s.spec.Engine = run.EngineFreeRunning
		if skew > 0 {
			s.spec.MaxSkew = skew
		}
		if budget > 0 {
			s.spec.Rounds = budget
		}
	}}
}

// WithTransport selects the live transport without changing the engine
// (useful when layering CLI flags over OnFreeRunning).
func WithTransport(t Transport) Option {
	return Option{func(s *settings) { s.spec.Transport = string(t) }}
}

// WithFrameLoss drops every transport frame independently with the given
// probability on the free-running channel transport; seed drives the
// deterministic drop injection. Distinct from WithLoss, which is the
// model's oblivious per-call loss on the simulated engines.
func WithFrameLoss(rate float64, seed uint64) Option {
	return Option{func(s *settings) { s.spec.Drop = rate; s.spec.DropSeed = seed }}
}

// WithLinkDelay delays every channel-mesh delivery by latency plus a random
// share of jitter (free-running engine only).
func WithLinkDelay(latency, jitter time.Duration) Option {
	return Option{func(s *settings) { s.spec.Latency = latency; s.spec.Jitter = jitter }}
}

// RumorCount is a per-rumor live-informed count inside a scenario phase.
type RumorCount struct {
	Rumor        int
	LiveInformed int
}

// ScenarioPhase summarizes the rounds between two timeline events of a
// multi-rumor run: the traffic, the live population, and how far every
// rumor had spread when the phase ended.
type ScenarioPhase struct {
	// FromRound..ToRound is the inclusive round span of the phase.
	FromRound, ToRound int
	// Events describes the timeline events that opened the phase.
	Events []string
	// Live is the live node count during the phase.
	Live int
	// Messages counts payload and control messages sent within the phase;
	// Bits is their total size; MaxComms is the phase's Δ.
	Messages int64
	Bits     int64
	MaxComms int
	// Informed holds, per registered rumor, the live informed count at the
	// end of the phase.
	Informed []RumorCount
}

// RumorOutcome is the final state of one rumor of a multi-rumor run.
type RumorOutcome struct {
	Rumor int
	// InjectRound is the round at which the rumor was first injected.
	InjectRound int
	// LiveInformed and LiveFraction report how many live nodes held the
	// rumor when the budget ran out.
	LiveInformed int
	LiveFraction float64
	// CompletionRound is the first round at whose end every live node held
	// the rumor (0 if that never happened within the budget).
	CompletionRound int
}

// Report is the unified outcome of a Run: the broadcast-style Result plus
// whatever workload- and engine-specific extras the execution produced.
type Report struct {
	Result

	// Engine names the substrate that executed the run: "simulator",
	// "lock-step" or "free-running".
	Engine string
	// PayloadBits is the rumor size b every payload was charged: the one a
	// WithPayloadBits option or a scenario spec set, or the default.
	PayloadBits int

	// Scenario, Rumors and ScenarioPhases are filled by multi-rumor runs:
	// the scenario's name, the final per-rumor outcomes (ordered by rumor
	// ID) and the per-phase trace. For them, Result.Informed counts live
	// nodes holding the worst-spread rumor and Result.CompletionRound is the
	// last rumor's completion (0 unless every rumor completed).
	Scenario       string
	Rumors         []RumorOutcome
	ScenarioPhases []ScenarioPhase

	// Free-running extras: transport-level frame drops, timeline events
	// that never fired (scheduled past the final frontier) or could not be
	// honored by the transport, and the wall-clock execution time.
	Drops         int64
	UnfiredEvents int
	IgnoredEvents int
	Wall          time.Duration

	// SendFailures counts frames the UDP transport could not hand to the OS
	// (frames over one datagram and writes the OS refused) — loss the
	// transport itself produced, as opposed to injected frame drops.
	// NodeSendFailures breaks the count down by sending node and is nil when
	// nothing failed.
	SendFailures     int64
	NodeSendFailures map[int]int64

	// Rumor-set extras (wide simulator runs and free-running streams).
	// LostInjects counts injections at failed nodes whose rumor never reached
	// a live node; RumorsExpired counts converged rumors the GC retired to
	// recycle window slots. The remaining fields are stream-only
	// (WithRumorStream): lifetime injection/convergence totals, the rumors
	// still active when the run stopped (0 when the stream drained), how
	// many monitor passes injection spent stalled on a full window — the
	// backpressure signal — and how many times the stream seeded an
	// in-flight rumor again because every node holding it had crashed.
	LostInjects     int64
	RumorsInjected  int64
	RumorsConverged int64
	RumorsExpired   int64
	RumorsActive    int
	InjectionStalls int64
	RumorsReseeded  int64

	snapshot []MetricSample
}

// Snapshot returns the WithTelemetry registry's state at the moment the run
// finished, in deterministic order; nil when the run collected no telemetry.
func (r Report) Snapshot() []MetricSample { return r.snapshot }

// fromOutcome copies the internal result onto the public Report — the one
// field-by-field copy between an engine and the caller (api/repro.txt pins
// the public declarations; TestReportMirrorsTraceResult pins that neither
// side has a field the other lacks, and that none is dropped here).
func fromOutcome(out trace.Result) Report {
	rep := Report{
		Result: Result{
			Algorithm:        out.Algorithm,
			N:                out.N,
			Seed:             out.Seed,
			Rounds:           out.Rounds,
			CompletionRound:  out.CompletionRound,
			Messages:         out.Messages,
			ControlMessages:  out.ControlMessages,
			Bits:             out.Bits,
			MessagesPerNode:  out.MessagesPerNode,
			MaxCommsPerRound: out.MaxCommsPerRound,
			Live:             out.Live,
			Informed:         out.Informed,
			AllInformed:      out.AllInformed,
		},
		Engine:           out.Engine,
		PayloadBits:      out.PayloadBits,
		Scenario:         out.Scenario,
		Drops:            out.Drops,
		UnfiredEvents:    out.UnfiredEvents,
		IgnoredEvents:    out.IgnoredEvents,
		Wall:             out.Wall,
		SendFailures:     out.SendFailures,
		NodeSendFailures: out.NodeSendFailures,
		LostInjects:      out.LostInjects,
		RumorsInjected:   out.RumorsInjected,
		RumorsConverged:  out.RumorsConverged,
		RumorsExpired:    out.RumorsExpired,
		RumorsActive:     out.RumorsActive,
		InjectionStalls:  out.InjectionStalls,
		RumorsReseeded:   out.RumorsReseeded,
	}
	for _, p := range out.Phases {
		rep.Result.Phases = append(rep.Result.Phases, Phase(p))
	}
	for _, ro := range out.Rumors {
		rep.Rumors = append(rep.Rumors, RumorOutcome{
			Rumor:           int(ro.Rumor),
			InjectRound:     ro.InjectRound,
			LiveInformed:    ro.LiveInformed,
			LiveFraction:    ro.LiveFraction,
			CompletionRound: ro.CompletionRound,
		})
	}
	for _, ph := range out.ScenarioPhases {
		p := ScenarioPhase{
			FromRound: ph.FromRound,
			ToRound:   ph.ToRound,
			Events:    ph.Events,
			Live:      ph.Live,
			Messages:  ph.Messages,
			Bits:      ph.Bits,
			MaxComms:  ph.MaxComms,
		}
		for _, rc := range ph.Informed {
			p.Informed = append(p.Informed, RumorCount{Rumor: int(rc.Rumor), LiveInformed: rc.LiveInformed})
		}
		rep.ScenarioPhases = append(rep.ScenarioPhases, p)
	}
	return rep
}
