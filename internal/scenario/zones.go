package scenario

import (
	"fmt"

	"repro/internal/phonecall"
)

// Zone and partition events: the timeline vocabulary of heterogeneous
// topologies (internal/policy). They act through the network's installed
// peer selector — the same object that biases random contacts — so "fail
// zone 2" and "partition the zones" mean the same node sets the policy
// selects over. On a network without a topology they fail loudly at apply
// time instead of silently doing nothing.

// TopologyView is what the zone events need from the installed peer
// selector; internal/policy's Selector implements it. Declared here (not
// imported) so the event vocabulary stays decoupled from the policy
// compiler; the free-running runtime fires the same events through it.
type TopologyView interface {
	ZoneMembers(zone int) []int
	Zones() int
	SetPartitioned(part bool)
}

// topology extracts the topology view from the network's peer selector.
func topology(net *phonecall.Network, what string) (TopologyView, error) {
	if tv, ok := net.PeerSelector().(TopologyView); ok {
		return tv, nil
	}
	return nil, fmt.Errorf("scenario: %s needs a topology (configure one with WithTopology)", what)
}

// ZoneMembers resolves a zone event's node set on the installed topology;
// what names the event in the error.
func ZoneMembers(net *phonecall.Network, what string, zone int) ([]int, error) {
	tv, err := topology(net, what)
	if err != nil {
		return nil, err
	}
	if zone < 0 || zone >= tv.Zones() {
		return nil, fmt.Errorf("scenario: zone %d outside the topology's [0,%d)", zone, tv.Zones())
	}
	return tv.ZoneMembers(zone), nil
}

// ZoneOutage fails every node of a topology zone at the start of round At —
// a whole failure domain (rack, datacenter) going dark at once.
type ZoneOutage struct {
	At   int
	Zone int
}

// EventRound implements Event.
func (e ZoneOutage) EventRound() int { return e.At }

// Describe implements Event.
func (e ZoneOutage) Describe() string { return fmt.Sprintf("zone %d outage", e.Zone) }

// Apply implements Event.
func (e ZoneOutage) Apply(net *phonecall.Network, l ledger) error {
	members, err := ZoneMembers(net, "zone outage", e.Zone)
	if err != nil {
		return err
	}
	membersOf(net, l).Fail(members...)
	return nil
}

// ZoneHeal revives every failed node of a zone at the start of round At.
// Under the scenario driver the zone rejoins uninformed, like JoinAt.
type ZoneHeal struct {
	At   int
	Zone int
}

// EventRound implements Event.
func (e ZoneHeal) EventRound() int { return e.At }

// Describe implements Event.
func (e ZoneHeal) Describe() string { return fmt.Sprintf("zone %d heals", e.Zone) }

// Apply implements Event.
func (e ZoneHeal) Apply(net *phonecall.Network, l ledger) error {
	members, err := ZoneMembers(net, "zone heal", e.Zone)
	if err != nil {
		return err
	}
	membersOf(net, l).Revive(members...)
	return nil
}

// Partition splits the network along zone boundaries from round At on:
// random contacts resolve only within the initiator's own zone until a
// HealPartition event reconnects them. Nodes stay live — the partition is a
// connectivity event, not a failure.
type Partition struct {
	At int
}

// EventRound implements Event.
func (e Partition) EventRound() int { return e.At }

// Describe implements Event.
func (e Partition) Describe() string { return "partition zones" }

// Apply implements Event.
func (e Partition) Apply(net *phonecall.Network, l ledger) error {
	tv, err := topology(net, "partition")
	if err != nil {
		return err
	}
	tv.SetPartitioned(true)
	return nil
}

// HealPartition reconnects the zones at the start of round At.
type HealPartition struct {
	At int
}

// EventRound implements Event.
func (e HealPartition) EventRound() int { return e.At }

// Describe implements Event.
func (e HealPartition) Describe() string { return "heal partition" }

// Apply implements Event.
func (e HealPartition) Apply(net *phonecall.Network, l ledger) error {
	tv, err := topology(net, "heal partition")
	if err != nil {
		return err
	}
	tv.SetPartitioned(false)
	return nil
}
