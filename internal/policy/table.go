// Package policy implements policy-driven peer selection over heterogeneous
// topologies: a compact per-node attribute table (zone, latency class,
// capacity, reputation), JSON policy specs with hard constraints and weighted
// scoring, and a deterministic selector that layers under the engines'
// random-contact seam (phonecall.PeerSelector).
//
// Everything at runtime is a pure integer function of (seed, round,
// initiator) plus compiled tables, so selection is bit-identical across
// worker counts, engines and platforms — the same property the uniform
// contract phonecall.RandomPeer has. Floating point appears only at compile
// time (NewSelector), where scores are quantized to integer slot
// multiplicities once. DESIGN.md §13 documents the contract; the naive
// re-implementation ReferenceSelect and FuzzPolicyVsOracle pin it.
package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// Attribute defaults applied by the generators and by JSON node specs that
// omit a field.
const (
	// DefaultCapacity is the middle of the uint8 capacity scale.
	DefaultCapacity = 128
	// DefaultReputation is a "good standing" baseline below the maximum, so
	// specs can model both better and worse nodes.
	DefaultReputation = 200
)

// Attrs is one node's attribute tuple.
type Attrs struct {
	// Zone is the failure/locality domain (rack, datacenter, region).
	Zone int
	// Latency is the node's latency class: 0 = closest tier, 255 = farthest.
	// Distance between two nodes is |a.Latency - b.Latency|.
	Latency uint8
	// Capacity is the node's relative serving capacity in [0, 255].
	Capacity uint8
	// Reputation is the node's standing in [0, 255]; policies can exclude or
	// down-weight low-reputation peers.
	Reputation uint8
}

// Table is the immutable node-attribute table, stored as parallel columns
// (struct of arrays) keyed by node index — the engines address nodes by
// index, and NodeIDs are seed-derived, so a topology is specified positionally.
type Table struct {
	n          int
	zone       []uint16
	latency    []uint8
	capacity   []uint8
	reputation []uint8
	zones      int // number of zones (max zone + 1)
}

// MaxZones bounds the zone id space; zones are failure domains, not node
// names, so a small dense space keeps per-zone aggregation cheap.
const MaxZones = 1 << 16

// NewTable builds a table from explicit per-node attributes.
func NewTable(attrs []Attrs) (*Table, error) {
	t := &Table{
		n:          len(attrs),
		zone:       make([]uint16, len(attrs)),
		latency:    make([]uint8, len(attrs)),
		capacity:   make([]uint8, len(attrs)),
		reputation: make([]uint8, len(attrs)),
	}
	for i, a := range attrs {
		if a.Zone < 0 || a.Zone >= MaxZones {
			return nil, fmt.Errorf("policy: node %d: zone %d outside [0,%d)", i, a.Zone, MaxZones)
		}
		t.zone[i] = uint16(a.Zone)
		t.latency[i] = a.Latency
		t.capacity[i] = a.Capacity
		t.reputation[i] = a.Reputation
		if a.Zone+1 > t.zones {
			t.zones = a.Zone + 1
		}
	}
	return t, nil
}

// Len returns the number of nodes the table describes.
func (t *Table) Len() int { return t.n }

// Zones returns the number of zones (max zone id + 1).
func (t *Table) Zones() int { return t.zones }

// Attrs returns node i's attribute tuple.
func (t *Table) Attrs(i int) Attrs {
	return Attrs{
		Zone:       int(t.zone[i]),
		Latency:    t.latency[i],
		Capacity:   t.capacity[i],
		Reputation: t.reputation[i],
	}
}

// Zone returns node i's zone.
func (t *Table) Zone(i int) int { return int(t.zone[i]) }

// ZoneMembers returns the node indexes in a zone, ascending. The slice is
// freshly allocated; zone events are rare, so this is not a hot path.
func (t *Table) ZoneMembers(zone int) []int {
	var out []int
	for i := 0; i < t.n; i++ {
		if int(t.zone[i]) == zone {
			out = append(out, i)
		}
	}
	return out
}

// ZoneTable builds a flat zone table: zone = i mod k, identical latency,
// default capacity and reputation — the minimal heterogeneous topology
// (failure domains without link asymmetry).
func ZoneTable(n, k int) (*Table, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("policy: zones %d outside [1,%d]", k, n)
	}
	attrs := make([]Attrs, n)
	for i := range attrs {
		attrs[i] = Attrs{Zone: i % k, Capacity: DefaultCapacity, Reputation: DefaultReputation}
	}
	return NewTable(attrs)
}

// WanLanTable builds a WAN-asymmetric topology: k zones (zone = i mod k),
// zone z at latency class 16·z, zone 0 at full capacity (a LAN of fast
// nodes) and every other zone at a quarter — the shape where same-zone
// preference and capacity weighting visibly change spreading behavior.
func WanLanTable(n, k int) (*Table, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("policy: zones %d outside [1,%d]", k, n)
	}
	attrs := make([]Attrs, n)
	for i := range attrs {
		z := i % k
		lat := 16 * z
		if lat > 255 {
			lat = 255
		}
		cap8 := uint8(64)
		if z == 0 {
			cap8 = 255
		}
		attrs[i] = Attrs{Zone: z, Latency: uint8(lat), Capacity: cap8, Reputation: DefaultReputation}
	}
	return NewTable(attrs)
}

// TopologySpec is the JSON surface describing a topology: either a named
// generator sized at build time, or an explicit per-node attribute list.
type TopologySpec struct {
	// Generator names a built-in topology: "zones" (flat zones) or "wanlan"
	// (WAN-asymmetric zones). Mutually exclusive with Nodes.
	Generator string `json:"generator,omitempty"`
	// Zones parameterizes the generator (number of zones k).
	Zones int `json:"zones,omitempty"`
	// Nodes lists explicit per-node attributes; its length must equal the
	// network size.
	Nodes []NodeSpec `json:"nodes,omitempty"`
}

// NodeSpec is one node's attributes in a JSON topology. Omitted capacity and
// reputation take the package defaults.
type NodeSpec struct {
	Zone       int  `json:"zone"`
	Latency    int  `json:"latency,omitempty"`
	Capacity   *int `json:"capacity,omitempty"`
	Reputation *int `json:"reputation,omitempty"`
}

// ErrSpec marks malformed topology and policy specs.
var ErrSpec = errors.New("policy: invalid spec")

// ParseTopology decodes a JSON topology spec, rejecting unknown fields.
func ParseTopology(data []byte) (*TopologySpec, error) {
	var spec TopologySpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: topology: %v", ErrSpec, err)
	}
	return &spec, nil
}

// LoadTopology reads and parses a JSON topology spec file.
func LoadTopology(path string) (*TopologySpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := ParseTopology(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Build materializes the spec into an n-node attribute table.
func (s *TopologySpec) Build(n int) (*Table, error) {
	if len(s.Nodes) > 0 {
		if s.Generator != "" {
			return nil, fmt.Errorf("%w: topology has both a generator and explicit nodes", ErrSpec)
		}
		if len(s.Nodes) != n {
			return nil, fmt.Errorf("%w: topology lists %d nodes for an n=%d network", ErrSpec, len(s.Nodes), n)
		}
		attrs := make([]Attrs, n)
		for i, ns := range s.Nodes {
			a, err := ns.attrs(i)
			if err != nil {
				return nil, err
			}
			attrs[i] = a
		}
		t, err := NewTable(attrs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		return t, nil
	}
	k := s.Zones
	if k == 0 {
		k = 1
	}
	var t *Table
	var err error
	switch s.Generator {
	case "zones":
		t, err = ZoneTable(n, k)
	case "wanlan":
		t, err = WanLanTable(n, k)
	case "":
		return nil, fmt.Errorf("%w: topology needs a generator or explicit nodes", ErrSpec)
	default:
		return nil, fmt.Errorf("%w: unknown topology generator %q", ErrSpec, s.Generator)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return t, nil
}

func (ns NodeSpec) attrs(i int) (Attrs, error) {
	byteRange := func(field string, v int) (uint8, error) {
		if v < 0 || v > 255 {
			return 0, fmt.Errorf("%w: node %d: %s %d outside [0,255]", ErrSpec, i, field, v)
		}
		return uint8(v), nil
	}
	if ns.Zone < 0 || ns.Zone >= MaxZones {
		return Attrs{}, fmt.Errorf("%w: node %d: zone %d outside [0,%d)", ErrSpec, i, ns.Zone, MaxZones)
	}
	lat, err := byteRange("latency", ns.Latency)
	if err != nil {
		return Attrs{}, err
	}
	capv, repv := DefaultCapacity, DefaultReputation
	if ns.Capacity != nil {
		capv = *ns.Capacity
	}
	if ns.Reputation != nil {
		repv = *ns.Reputation
	}
	cap8, err := byteRange("capacity", capv)
	if err != nil {
		return Attrs{}, err
	}
	rep8, err := byteRange("reputation", repv)
	if err != nil {
		return Attrs{}, err
	}
	return Attrs{Zone: ns.Zone, Latency: lat, Capacity: cap8, Reputation: rep8}, nil
}

// groupKey orders attribute tuples lexicographically; the group order is part
// of the selection contract, so it is defined here once and reused by the
// compiler and the reference implementation.
func groupLess(a, b Attrs) bool {
	if a.Zone != b.Zone {
		return a.Zone < b.Zone
	}
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	if a.Capacity != b.Capacity {
		return a.Capacity < b.Capacity
	}
	return a.Reputation < b.Reputation
}

// groupTable computes the table's distinct attribute groups in contract
// order, each with its member node indexes ascending, plus each node's group
// and position within it.
func groupTable(t *Table) (groups []Attrs, members [][]int, groupOf, posInGroup []int) {
	seen := map[Attrs]int{}
	for i := 0; i < t.n; i++ {
		a := t.Attrs(i)
		if _, ok := seen[a]; !ok {
			seen[a] = 0
			groups = append(groups, a)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groupLess(groups[i], groups[j]) })
	for g, a := range groups {
		seen[a] = g
	}
	members = make([][]int, len(groups))
	groupOf = make([]int, t.n)
	posInGroup = make([]int, t.n)
	for i := 0; i < t.n; i++ {
		g := seen[t.Attrs(i)]
		groupOf[i] = g
		posInGroup[i] = len(members[g])
		members[g] = append(members[g], i)
	}
	return groups, members, groupOf, posInGroup
}
