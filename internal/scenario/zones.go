package scenario

import (
	"fmt"

	"repro/internal/policy"
)

// Zone and partition events: the timeline vocabulary of heterogeneous
// topologies (internal/policy). They act through the target's installed peer
// selector, a *policy.Selector — the same object that biases random contacts
// — so "fail zone 2" and "partition the zones" mean the same node sets the
// policy selects over, on every engine. On a target without a topology they
// fail loudly at apply time instead of silently doing nothing.

// topology returns the target's installed policy selector; what names the
// event in the error.
func topology(t Target, what string) (*policy.Selector, error) {
	if sel, ok := t.PeerSelector().(*policy.Selector); ok {
		return sel, nil
	}
	return nil, fmt.Errorf("scenario: %s needs a topology (configure one with WithTopology)", what)
}

// zoneMembers resolves a zone event's node set on the installed topology.
func zoneMembers(t Target, what string, zone int) ([]int, error) {
	sel, err := topology(t, what)
	if err != nil {
		return nil, err
	}
	if zone < 0 || zone >= sel.Zones() {
		return nil, fmt.Errorf("scenario: zone %d outside the topology's [0,%d)", zone, sel.Zones())
	}
	return sel.ZoneMembers(zone), nil
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
func (e ZoneOutage) Apply(t Target) error {
	members, err := zoneMembers(t, "zone outage", e.Zone)
	if err != nil {
		return err
	}
	t.Fail(members...)
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
func (e ZoneHeal) Apply(t Target) error {
	members, err := zoneMembers(t, "zone heal", e.Zone)
	if err != nil {
		return err
	}
	t.Revive(members...)
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
func (e Partition) Apply(t Target) error {
	sel, err := topology(t, "partition")
	if err != nil {
		return err
	}
	sel.SetPartitioned(true)
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
func (e HealPartition) Apply(t Target) error {
	sel, err := topology(t, "heal partition")
	if err != nil {
		return err
	}
	sel.SetPartitioned(false)
	return nil
}
