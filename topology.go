package repro

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/scenario"
)

// Heterogeneous topologies and peer-selection policies: the public surface of
// internal/policy. A Topology attributes every node (zone, latency class,
// capacity, reputation); a Policy biases each random contact over those
// attributes with hard constraints and weighted scoring. Selection stays a
// pure integer function of (seed, round, initiator), so policy-driven runs
// keep the simulator/lock-step bit-identical guarantee. A topology without a
// policy changes nothing — the uniform contract stays byte-identical — but
// enables the zone events (ZoneOutageAt, PartitionAt, …) and per-zone
// telemetry.

// Topology is an immutable node-attribute table for a network of a fixed
// size. The zero value is no topology; build one with ZonedTopology,
// WanLanTopology, TopologyFromJSON or TopologyFromFile and pass it to Run via
// WithTopology.
type Topology struct {
	table *policy.Table
}

// ZonedTopology builds the minimal heterogeneous topology: n nodes spread
// round-robin over zones failure domains (zone = i mod zones), with identical
// latency, capacity and reputation everywhere.
func ZonedTopology(n, zones int) (Topology, error) {
	t, err := policy.ZoneTable(n, zones)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return Topology{table: t}, nil
}

// WanLanTopology builds a WAN-asymmetric topology: zones failure domains
// (zone = i mod zones) at increasing latency classes, zone 0 a LAN of
// full-capacity nodes and every other zone at a quarter capacity — the shape
// where same-zone preference and capacity weighting visibly change spreading.
func WanLanTopology(n, zones int) (Topology, error) {
	t, err := policy.WanLanTable(n, zones)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return Topology{table: t}, nil
}

// TopologyFromJSON materializes a JSON topology spec (a named generator or an
// explicit per-node attribute list — the format of the cmd/gossip -topology
// flag) for an n-node network.
func TopologyFromJSON(data []byte, n int) (Topology, error) {
	spec, err := policy.ParseTopology(data)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	t, err := spec.Build(n)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return Topology{table: t}, nil
}

// TopologyFromFile is TopologyFromJSON reading the spec from a file.
func TopologyFromFile(path string, n int) (Topology, error) {
	spec, err := policy.LoadTopology(path)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: topology: %v", ErrInvalidConfig, err)
	}
	t, err := spec.Build(n)
	if err != nil {
		return Topology{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return Topology{table: t}, nil
}

// Len returns the number of nodes the topology describes (0 for the zero
// value).
func (t Topology) Len() int {
	if t.table == nil {
		return 0
	}
	return t.table.Len()
}

// Zones returns the number of zones (0 for the zero value).
func (t Topology) Zones() int {
	if t.table == nil {
		return 0
	}
	return t.table.Zones()
}

// ZoneNodes returns the node indexes in a zone, ascending — useful for
// building CrashAt/JoinAt waves aligned with failure domains by hand.
func (t Topology) ZoneNodes(zone int) []int {
	if t.table == nil {
		return nil
	}
	return t.table.ZoneMembers(zone)
}

// PolicyMode decides what happens when a policy leaves an initiator with no
// admissible peer.
type PolicyMode string

const (
	// PolicyEnforce treats an empty candidate set as a failed call: the
	// initiator is charged for the attempt and nothing is delivered. The
	// default.
	PolicyEnforce PolicyMode = "enforce"
	// PolicyPermissive falls back to the uniform contact when no peer is
	// admissible, prioritizing liveness over constraints; the fallback is
	// counted as a policy violation.
	PolicyPermissive PolicyMode = "permissive"
)

// PolicyRules are a policy's hard constraints: a peer failing any rule is
// never selected, regardless of weights.
type PolicyRules struct {
	// SameZoneOnly admits only peers in the initiator's zone.
	SameZoneOnly bool
	// MaxLatencyDistance caps |initiator latency − peer latency| in [0,255];
	// 0 means unlimited.
	MaxLatencyDistance int
	// MinReputation and MinCapacity exclude peers below the threshold
	// ([0,255]).
	MinReputation int
	MinCapacity   int
	// DenyZones excludes peers in the listed zones.
	DenyZones []int
}

// PolicyWeights are a policy's soft preferences. Every admissible peer scores
//
//	1 + SameZone·[same zone] + Latency·(255−dist)/255
//	  + Capacity·cap/255 + Reputation·rep/255
//
// and is selected with probability proportional to its score; all weights
// zero reproduces the uniform distribution over the admissible peers.
type PolicyWeights struct {
	SameZone   float64
	Latency    float64
	Capacity   float64
	Reputation float64
}

// Policy is a complete peer-selection policy: hard constraints, soft weights,
// and the empty-candidate mode. A Policy needs a Topology (WithTopology);
// configuring one without the other is rejected by Run.
type Policy struct {
	Mode    PolicyMode // zero value: PolicyEnforce
	Rules   PolicyRules
	Weights PolicyWeights
}

// internal converts to the internal representation (validated by Run).
func (p Policy) internal() *policy.Policy {
	return &policy.Policy{
		Mode: policy.Mode(p.Mode),
		Rules: policy.Rules{
			SameZoneOnly:       p.Rules.SameZoneOnly,
			MaxLatencyDistance: p.Rules.MaxLatencyDistance,
			MinReputation:      p.Rules.MinReputation,
			MinCapacity:        p.Rules.MinCapacity,
			DenyZones:          p.Rules.DenyZones,
		},
		Weights: policy.Weights{
			SameZone:   p.Weights.SameZone,
			Latency:    p.Weights.Latency,
			Capacity:   p.Weights.Capacity,
			Reputation: p.Weights.Reputation,
		},
	}
}

// WithTopology attributes the run's nodes with the topology. On its own it
// changes no execution — results stay byte-identical to the uniform runs —
// but it enables zone timeline events, per-zone telemetry, and WithPolicy.
// The topology's size must match the run's n.
func WithTopology(t Topology) Option {
	return Option{func(s *settings) {
		if t.table == nil {
			s.fail(fmt.Errorf("%w: empty topology (build one with ZonedTopology, WanLanTopology or TopologyFromJSON)", ErrInvalidConfig))
			return
		}
		s.spec.Topology = t.table
		s.topoSpec = nil
	}}
}

// WithTopologyFile attributes the run's nodes from a JSON topology spec
// file, sized to the run's network once n is known — unlike TopologyFromFile
// it composes with scenario specs that fix their own n (the cmd/gossip
// -topology flag). It overrides any earlier WithTopology.
func WithTopologyFile(path string) Option {
	return Option{func(s *settings) {
		spec, err := policy.LoadTopology(path)
		if err != nil {
			s.fail(fmt.Errorf("%w: topology: %v", ErrInvalidConfig, err))
			return
		}
		s.spec.Topology = nil
		s.topoSpec = spec
	}}
}

// WithPolicy biases every random contact by the policy, over the attributes
// of the WithTopology table. Identical policies and seeds give identical
// results on the simulator and lock-step engines, for any worker count.
func WithPolicy(p Policy) Option {
	return Option{func(s *settings) { s.spec.Policy = p.internal() }}
}

// WithPolicyFile is WithPolicy reading a JSON policy (the format of the
// cmd/gossip -policy flag).
func WithPolicyFile(path string) Option {
	return Option{func(s *settings) {
		p, err := policy.LoadPolicy(path)
		if err != nil {
			s.fail(fmt.Errorf("%w: policy: %v", ErrInvalidConfig, err))
			return
		}
		s.spec.Policy = p
	}}
}

// ZoneOutageAt crashes every node of the topology zone at the start of round
// At — a whole failure domain going dark. Needs WithTopology.
type ZoneOutageAt struct {
	At   int
	Zone int
}

func (e ZoneOutageAt) event() (scenario.Event, error) {
	return scenario.ZoneOutage{At: e.At, Zone: e.Zone}, nil
}

// ZoneHealAt revives every node of the topology zone at the start of round
// At — the failure domain coming back. Needs WithTopology.
type ZoneHealAt struct {
	At   int
	Zone int
}

func (e ZoneHealAt) event() (scenario.Event, error) {
	return scenario.ZoneHeal{At: e.At, Zone: e.Zone}, nil
}

// PartitionAt splits the network along zone boundaries at the start of round
// At: until HealPartitionAt, every contact resolves within the initiator's
// own zone (under the configured policy's weights). Needs WithTopology.
type PartitionAt struct {
	At int
}

func (e PartitionAt) event() (scenario.Event, error) {
	return scenario.Partition{At: e.At}, nil
}

// HealPartitionAt removes the PartitionAt split at the start of round At,
// restoring cross-zone contacts. Needs WithTopology.
type HealPartitionAt struct {
	At int
}

func (e HealPartitionAt) event() (scenario.Event, error) {
	return scenario.HealPartition{At: e.At}, nil
}
