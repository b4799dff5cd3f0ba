// Package run is the execution layer behind the public repro facade and the
// experiment tables: one validated Spec describing a gossip execution, one
// Execute that builds and drives the engine for it, and the trace.Result that
// engine filled coming back as it is.
//
//	spec := run.Spec{N: 100000, Algorithm: "cluster2", Seed: 7}
//	res, err := run.Execute(ctx, spec)
//
// The engine is selected by Spec.Engine (simulator, lock-step, free-running)
// and the workload by the spec's shape: a timeline that injects rumors runs
// the steppable multi-rumor scenario driver, everything else runs the closed
// broadcast algorithms. Execute constructs the phonecall.Network,
// live.LockStep or live.FreeRun of every workload a Spec describes
// (engines.go); the facade, cmd/gossip, internal/harness's E-tables and
// bench/ describe what to run as a Spec. Below Execute, scenario.Run builds
// its own network (bench/ also calls it directly), and live.NewFreeRun and
// live.NewPeerNode build a directory-only one; cmd/gossipnode drives
// live.NewPeerNode without a Spec.
// Validation happens here, at the boundary, with every violation wrapped in
// ErrInvalidConfig — internals may assume a valid spec. Cancellation and
// deadlines flow from ctx through the engine round loop
// (phonecall.SetContext) and the live runtime on every path.
package run

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrInvalidConfig is wrapped by every validation error the run layer
// returns, so callers can test errors.Is(err, ErrInvalidConfig) regardless
// of which constraint was violated.
var ErrInvalidConfig = errors.New("invalid configuration")

// invalidf builds an ErrInvalidConfig-wrapped validation error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// Engine selects the execution substrate.
type Engine uint8

// The engines. Simulator is the sharded in-process round engine; LockStep
// runs every node as a goroutine over a synchronous transport with results
// bit-identical to the simulator; FreeRunning drops the global barrier and
// runs local round clocks with bounded skew.
const (
	EngineSimulator Engine = iota
	EngineLockStep
	EngineFreeRunning
)

// String names the engine for errors and reports.
func (e Engine) String() string {
	switch e {
	case EngineSimulator:
		return "simulator"
	case EngineLockStep:
		return "lock-step"
	case EngineFreeRunning:
		return "free-running"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// RoundStats is one executed round as streamed to a Spec.Observer: the
// engine's own per-round report plus the live population when the round
// ended. On the free-running engine there is no global round; frontier
// advances are streamed instead, with the traffic fields zero.
type RoundStats struct {
	Round    int
	Live     int
	Messages int64
	Bits     int64
	MaxComms int
}

// Observer streams per-round statistics while an execution runs. It is
// invoked on the goroutine that called Execute, on every engine (the
// coordinator's round loop, or the free-running monitor loop that FreeRun.Run
// itself runs); it must not call back into the execution.
type Observer func(RoundStats)

// Spec describes one gossip execution, independent of the engine that will
// run it. The zero value of every field means "default".
type Spec struct {
	// N is the network size (required, >= 2).
	N int
	// Algorithm names the protocol. Closed broadcast algorithms (cluster2,
	// clusterpushpull, push-pull, ...) run on the simulator and lock-step
	// engines; the steppable multi-rumor protocols (push, pull, push-pull)
	// run under rumor-injecting timelines and on the free-running engine.
	// Empty selects cluster2 (closed) or push-pull (steppable).
	Algorithm string
	// Seed drives the execution; identical specs with identical seeds give
	// identical results on the simulator and lock-step engines.
	Seed uint64
	// PayloadBits is the rumor size b in bits (default 256).
	PayloadBits int
	// Workers is the simulator shard count (<= 0: GOMAXPROCS); results are
	// identical for any value.
	Workers int
	// Delta bounds per-round communications for clusterpushpull (default
	// 1024, minimum core.MinDelta).
	Delta int

	// Failures fails this many nodes, chosen by the oblivious random
	// adversary driven by FailureSeed — before round 1, or at the start of
	// FailureRound when it is > 1.
	Failures     int
	FailureSeed  uint64
	FailureRound int
	// LossRate drops every call independently with this probability from
	// round 1 on; LossSeed drives the decisions obliviously.
	LossRate float64
	LossSeed uint64

	// Topology attributes the nodes with zones, latency classes, capacities
	// and reputations (policy.ZoneTable, policy.WanLanTable or a JSON spec);
	// Policy biases every random contact over those attributes through a
	// compiled policy selector, identically on every engine. A topology
	// without a policy changes nothing — the uniform contract stays
	// bit-identical — but enables zone/partition timeline events and per-zone
	// telemetry. A policy without a topology is a configuration error.
	Topology *policy.Table
	Policy   *policy.Policy

	// Events is a scenario timeline (crash, join, loss, inject, corrupt,
	// zone-outage, zone-heal, partition, heal) applied as the rounds execute.
	// A timeline that injects at least one rumor selects the steppable
	// multi-rumor driver; Rounds is its budget.
	Events []scenario.Event
	// Rounds is the explicit round budget for multi-rumor and free-running
	// workloads (closed algorithms terminate on their own and reject it).
	Rounds int
	// ScenarioName labels multi-rumor results.
	ScenarioName string

	// StreamTotal > 0 switches a free-running run to the scalable rumor-set
	// layer: the monitor continuously injects StreamTotal rumors (IDs
	// 0..StreamTotal-1) at StreamRate rumors per frontier round (default 1)
	// through a bounded in-flight window, with injection stalling while the
	// window is full. Free-running engine only; a stream replaces InjectRumor
	// events.
	StreamTotal int
	StreamRate  float64
	// MaxInFlight bounds the concurrently active rumors of the rumor-set
	// layer. On the simulator it forces a rumor-injecting timeline onto the
	// wide rumor-set path (0 still selects wide when the timeline injects IDs
	// >= 64, sizing the window to the distinct rumor count); on the
	// free-running engine it is the stream's window (default
	// min(StreamTotal, 1024)).
	MaxInFlight int

	// Engine selects the substrate; the remaining fields tune the live
	// engines only.
	Engine Engine
	// Transport is "chan" (default) or "udp" (free-running only).
	Transport string
	// MaxSkew bounds free-running round clocks (default 3).
	MaxSkew int
	// Drop is the free-running transport's frame-loss probability, driven by
	// DropSeed; Latency and Jitter delay channel-mesh deliveries.
	Drop     float64
	DropSeed uint64
	Latency  time.Duration
	Jitter   time.Duration

	// Observer, when non-nil, streams per-round statistics.
	Observer Observer
	// Telemetry, when non-nil, collects the run's metric series (DESIGN.md
	// §11) into the registry: round/traffic counters, population gauges, the
	// round-duration histogram, and — free-running only — live send-path
	// counters and frontier gauges. A nil registry installs no observer at
	// all, keeping the engines on their zero-allocation round loop.
	Telemetry *telemetry.Registry
	// TraceWriter, when non-nil, streams the execution as JSONL records: one
	// "run" header, per-round "round" (or free-running "frontier") records,
	// the "phase" breakdown and a final "result". Write errors surface from
	// Execute after the run completes.
	TraceWriter io.Writer

	// tap is the observer Execute builds for the three fields above; the
	// engine functions read it, frontends never set it.
	tap *tap
}

// Execute validates the spec, runs it on the engine and workload it selects,
// and feeds the spec's observability consumers. This is the single entry
// point every frontend (the public facade, the CLIs, the experiment tables)
// goes through.
func Execute(ctx context.Context, spec Spec) (trace.Result, error) {
	if err := spec.Validate(); err != nil {
		return trace.Result{}, err
	}
	spec.tap = newTap(spec)
	spec.tap.writeHeader(spec)
	var res trace.Result
	var err error
	switch {
	case spec.Engine == EngineFreeRunning:
		res, err = runFree(ctx, spec)
	case spec.multiRumor():
		res, err = runScenario(ctx, spec)
	default:
		res, err = runClosed(ctx, spec)
	}
	if err != nil {
		return trace.Result{}, err
	}
	res.Engine, res.PayloadBits = spec.Engine.String(), spec.payloadBits()
	if err := spec.tap.writeSummary(res); err != nil {
		return trace.Result{}, fmt.Errorf("run: trace export: %w", err)
	}
	return res, nil
}

// payloadBits is the rumor size b the engines charge: the spec's, or the
// default when it sets none.
func (s Spec) payloadBits() int {
	if s.PayloadBits == 0 {
		return phonecall.DefaultPayloadBits
	}
	return s.PayloadBits
}

// multiRumor reports whether the timeline selects the steppable multi-rumor
// driver (it injects at least one rumor).
func (s Spec) multiRumor() bool {
	for _, ev := range s.Events {
		if _, ok := ev.(scenario.InjectRumor); ok {
			return true
		}
	}
	return false
}

// steppable reports whether name is one of the steppable multi-rumor
// protocols (empty selects the default).
func steppable(name string) bool {
	_, err := scenario.Algorithm(name).OrDefault()
	return err == nil
}

// Validate checks every boundary constraint and returns an
// ErrInvalidConfig-wrapped error for the first violation. Internals behind
// the run layer may assume a validated spec.
func (s Spec) Validate() error {
	if s.N < 2 {
		return invalidf("need N >= 2 (got %d)", s.N)
	}
	if s.N >= 1<<30 {
		return invalidf("N %d exceeds the engine's 2^30 node limit", s.N)
	}
	if s.PayloadBits < 0 {
		return invalidf("negative PayloadBits %d", s.PayloadBits)
	}
	if s.Delta != 0 && s.Delta < core.MinDelta {
		return invalidf("Delta %d below the minimum %d", s.Delta, core.MinDelta)
	}
	if s.Failures < 0 {
		return invalidf("negative Failures %d", s.Failures)
	}
	if s.Failures >= s.N {
		return invalidf("Failures %d leaves no live node out of %d", s.Failures, s.N)
	}
	if s.FailureRound < 0 {
		return invalidf("negative FailureRound %d", s.FailureRound)
	}
	if s.LossRate < 0 || s.LossRate > 1 {
		return invalidf("LossRate %v outside [0,1]", s.LossRate)
	}
	if s.Drop < 0 || s.Drop > 1 {
		return invalidf("transport drop rate %v outside [0,1]", s.Drop)
	}
	if s.Latency < 0 || s.Jitter < 0 {
		return invalidf("negative link delay (latency %v, jitter %v)", s.Latency, s.Jitter)
	}
	if s.MaxSkew < 0 {
		return invalidf("negative MaxSkew %d", s.MaxSkew)
	}
	if s.Rounds < 0 {
		return invalidf("negative Rounds %d", s.Rounds)
	}
	if s.StreamTotal < 0 {
		return invalidf("negative StreamTotal %d", s.StreamTotal)
	}
	if s.StreamRate < 0 {
		return invalidf("negative StreamRate %v", s.StreamRate)
	}
	if s.StreamRate > 0 && s.StreamTotal == 0 {
		return invalidf("StreamRate %v without a stream (set StreamTotal)", s.StreamRate)
	}
	if s.MaxInFlight < 0 {
		return invalidf("negative MaxInFlight %d", s.MaxInFlight)
	}
	if err := s.validatePolicy(); err != nil {
		return err
	}
	if err := s.validateEvents(); err != nil {
		return err
	}
	return s.validateEngine()
}

// validatePolicy checks the topology/policy pair and the zone events
// (scenario.ValidateZones) at the boundary, so misconfigurations surface as
// ErrInvalidConfig here instead of deep inside an engine.
func (s Spec) validatePolicy() error {
	if s.Policy != nil {
		if s.Topology == nil {
			return invalidf("a Policy needs a Topology")
		}
		p := *s.Policy // Validate normalizes the mode; don't mutate the caller's policy
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
	}
	if s.Topology != nil && s.Topology.Len() != s.N {
		return invalidf("Topology describes %d nodes for N=%d", s.Topology.Len(), s.N)
	}
	zones := 0
	if s.Topology != nil {
		zones = s.Topology.Zones()
	}
	if err := scenario.ValidateZones(zones, s.Events); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return nil
}

// validateEvents checks every timeline event against the network size and
// the model's ranges — the checks the engines would otherwise only hit (or
// silently miss) deep inside a run. The per-event authority is
// scenario.ValidateEvents, shared with every engine constructor, so a bad
// event yields the same ErrSpec-typed diagnosis no matter which layer sees it
// first; here it is additionally wrapped in ErrInvalidConfig so both
// errors.Is tests hold at the boundary.
func (s Spec) validateEvents() error {
	for _, ev := range s.Events {
		if ev == nil {
			return invalidf("nil timeline event")
		}
	}
	if err := scenario.ValidateEvents(s.N, s.wide(), s.Events); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return nil
}

// wide reports whether the spec selects the scalable rumor-set layer, which
// lifts the per-event rumor-ID bound from the 64-rumor bitmask to the uint32
// ID space. The free-running engine goes wide only through a stream (its
// timeline injects stay in the bitmask range); the simulator goes wide when
// the scenario driver will (scenario.Scenario.Wide).
func (s Spec) wide() bool {
	if s.Engine == EngineFreeRunning {
		return s.StreamTotal > 0
	}
	return s.StreamTotal > 0 || scenario.Scenario{Events: s.Events, MaxInFlight: s.MaxInFlight}.Wide()
}

// validateEngine checks the engine-specific constraints: which algorithms,
// timelines and transport shaping each substrate supports.
func (s Spec) validateEngine() error {
	switch s.Engine {
	case EngineSimulator, EngineLockStep:
		if s.StreamTotal > 0 {
			return invalidf("rumor streams (StreamTotal/StreamRate) run on the free-running engine only")
		}
		if s.MaxInFlight > 0 && !s.multiRumor() {
			return invalidf("MaxInFlight needs a rumor-injecting timeline (wide simulator runs) or a free-running stream")
		}
		if s.multiRumor() {
			if s.Engine == EngineLockStep {
				return invalidf("multi-rumor timelines run on the simulator or free-running engines, not lock-step")
			}
			if !steppable(s.Algorithm) {
				return invalidf("algorithm %q cannot run a multi-rumor timeline (have push, pull, push-pull)", s.Algorithm)
			}
			if s.Rounds < 1 {
				return invalidf("a multi-rumor timeline needs an explicit round budget (Rounds >= 1)")
			}
		} else if s.Algorithm != "" && !slices.Contains(Algorithms(), s.Algorithm) {
			return invalidf("unknown algorithm %q", s.Algorithm)
		} else if s.Rounds > 0 {
			return invalidf("a round budget (Rounds) applies to multi-rumor timelines and the free-running engine; closed algorithms terminate on their own")
		}
		if s.Drop != 0 || s.Latency != 0 || s.Jitter != 0 {
			return invalidf("transport frame loss and link delay apply to the free-running engine only")
		}
		if s.Engine == EngineSimulator && s.Transport != "" {
			return invalidf("transport selection applies to the live engines only")
		}
		if s.Engine == EngineLockStep && s.Transport != "" && s.Transport != "chan" {
			return invalidf("lock-step needs the synchronous channel transport (got %q)", s.Transport)
		}
	case EngineFreeRunning:
		if !steppable(s.Algorithm) {
			return invalidf("the free-running engine runs the steppable protocols (push, pull, push-pull), not %q", s.Algorithm)
		}
		if s.StreamTotal > 0 && s.multiRumor() {
			return invalidf("a rumor stream is the sole injector; drop the InjectRumor events")
		}
		if s.MaxInFlight > 0 && s.StreamTotal == 0 {
			return invalidf("MaxInFlight on the free-running engine is the stream window; set StreamTotal")
		}
		if s.Transport != "" && s.Transport != "chan" && s.Transport != "udp" {
			return invalidf("unknown transport %q (have chan, udp)", s.Transport)
		}
		if s.Transport == "udp" && (s.Drop != 0 || s.Latency != 0 || s.Jitter != 0) {
			return invalidf("frame loss and link delay are injected by the channel transport, not udp")
		}
		// Workers is a simulator tuning knob; like on lock-step (which is
		// goroutine-per-node too) it is ignored here, so shared scenario
		// specs that set it stay runnable on every engine.
	default:
		return invalidf("unknown engine %v", s.Engine)
	}
	return nil
}
