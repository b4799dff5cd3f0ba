package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/failure"
	"repro/internal/phonecall"
)

// JSON scenario specs: the on-disk form of a Scenario plus its execution
// config, runnable with `go run ./cmd/gossip -spec file.json`. A spec
// lists explicit events and/or generator invocations; both expand into the
// same typed timeline. Example:
//
//	{
//	  "name": "crash wave under loss",
//	  "n": 20000,
//	  "rounds": 40,
//	  "algorithm": "push-pull",
//	  "seed": 1,
//	  "events": [
//	    {"type": "inject", "round": 1, "node": 0, "rumor": 0},
//	    {"type": "loss", "round": 1, "rate": 0.05, "seed": 7},
//	    {"type": "crash", "round": 8, "count": 2000, "pick_seed": 11},
//	    {"type": "join", "round": 20, "count": 1000, "pick_seed": 11}
//	  ],
//	  "generators": [
//	    {"type": "periodic-churn", "start": 5, "period": 6, "count": 200,
//	     "down_for": 6, "seed": 13}
//	  ]
//	}

// Spec is the JSON form of a scenario.
type Spec struct {
	Name        string          `json:"name"`
	N           int             `json:"n"`
	Rounds      int             `json:"rounds"`
	Algorithm   string          `json:"algorithm,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	PayloadBits int             `json:"payload_bits,omitempty"`
	Workers     int             `json:"workers,omitempty"`
	MaxInFlight int             `json:"max_in_flight,omitempty"`
	Events      []EventSpec     `json:"events,omitempty"`
	Generators  []GeneratorSpec `json:"generators,omitempty"`
}

// EventSpec is one JSON timeline entry. Type selects the event; the other
// fields are type-specific:
//
//	crash / join  — nodes (explicit list), or count + pick_seed (oblivious
//	                random selection)
//	loss          — rate, seed
//	inject        — node, rumor
//	corrupt       — nodes or count + pick_seed, behavior (liar, spammer,
//	                eclipse, stale), plus rate + seed (spammer/liar) and
//	                victims (eclipse)
//	zone-outage / zone-heal — zone (needs a topology)
//	partition / heal        — no extra fields (needs a topology)
type EventSpec struct {
	Type     string  `json:"type"`
	Round    int     `json:"round"`
	Nodes    []int   `json:"nodes,omitempty"`
	Count    int     `json:"count,omitempty"`
	PickSeed uint64  `json:"pick_seed,omitempty"`
	Node     int     `json:"node,omitempty"`
	Rumor    int     `json:"rumor,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Behavior string  `json:"behavior,omitempty"`
	Victims  []int   `json:"victims,omitempty"`
	Zone     int     `json:"zone,omitempty"`
}

// GeneratorSpec is one JSON generator invocation, expanded into events when
// the spec is built. Type is one of periodic-churn, flap, waves, infiltrate.
type GeneratorSpec struct {
	Type     string  `json:"type"`
	Start    int     `json:"start"`
	Period   int     `json:"period,omitempty"`   // periodic-churn
	Count    int     `json:"count,omitempty"`    // periodic-churn, waves, infiltrate
	DownFor  int     `json:"down_for,omitempty"` // periodic-churn, flap
	UpFor    int     `json:"up_for,omitempty"`   // flap
	Nodes    []int   `json:"nodes,omitempty"`    // flap
	Gap      int     `json:"gap,omitempty"`      // waves, infiltrate
	Waves    int     `json:"waves,omitempty"`    // waves, infiltrate
	Growth   float64 `json:"growth,omitempty"`   // waves
	Behavior string  `json:"behavior,omitempty"` // infiltrate
	Rate     float64 `json:"rate,omitempty"`     // infiltrate (spammer)
	Seed     uint64  `json:"seed,omitempty"`
}

// ParseSpec parses a JSON spec. Unknown fields are rejected so that typos in
// hand-written specs fail loudly instead of silently doing nothing.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	return s, nil
}

// Build expands the spec into a validated Scenario and its execution Config.
func (s Spec) Build() (Scenario, Config, error) {
	sc := Scenario{
		Name:        s.Name,
		N:           s.N,
		Rounds:      s.Rounds,
		Algorithm:   Algorithm(s.Algorithm),
		MaxInFlight: s.MaxInFlight,
	}
	for i, es := range s.Events {
		if es.Round < 0 {
			return Scenario{}, Config{}, fmt.Errorf("scenario: event %d: %w: negative round %d", i, ErrSpec, es.Round)
		}
		if s.Rounds > 0 && es.Round > s.Rounds {
			return Scenario{}, Config{}, fmt.Errorf("scenario: event %d: %w: round %d past the %d-round budget (the event would never fire)", i, ErrSpec, es.Round, s.Rounds)
		}
		ev, err := es.event(s.N)
		if err != nil {
			return Scenario{}, Config{}, fmt.Errorf("scenario: event %d: %w", i, err)
		}
		sc.Events = append(sc.Events, ev)
	}
	for i, gs := range s.Generators {
		evs, err := gs.expand(s.N, s.Rounds)
		if err != nil {
			return Scenario{}, Config{}, fmt.Errorf("scenario: generator %d: %w", i, err)
		}
		sc.Events = append(sc.Events, evs...)
	}
	cfg := Config{Seed: s.Seed, PayloadBits: s.PayloadBits, Workers: s.Workers}
	if err := sc.Validate(); err != nil {
		return Scenario{}, Config{}, err
	}
	return sc, cfg, nil
}

// event converts one JSON entry into a typed event.
func (es EventSpec) event(n int) (Event, error) {
	switch es.Type {
	case "crash", "join", "corrupt":
		nodes := es.Nodes
		if len(nodes) == 0 {
			if es.Count <= 0 {
				return nil, fmt.Errorf("%w: %s event needs nodes or a positive count", ErrSpec, es.Type)
			}
			// Oblivious random selection, reusing the Section 8 adversary.
			nodes = failure.Random{Count: es.Count, Seed: es.PickSeed}.Select(n)
		}
		switch es.Type {
		case "crash":
			return CrashAt{At: es.Round, Nodes: nodes}, nil
		case "join":
			return JoinAt{At: es.Round, Nodes: nodes}, nil
		default:
			return CorruptAt{
				At:    es.Round,
				Nodes: nodes,
				Adversary: AdversarySpec{
					Kind:    AdversaryKind(es.Behavior),
					Rate:    es.Rate,
					Seed:    es.Seed,
					Victims: es.Victims,
				},
			}, nil
		}
	case "loss":
		return Loss{At: es.Round, Rate: es.Rate, Seed: es.Seed}, nil
	case "inject":
		if es.Rumor < 0 || int64(es.Rumor) > (1<<32-1) {
			return nil, fmt.Errorf("%w: rumor id %d outside the uint32 id space", ErrSpec, es.Rumor)
		}
		return InjectRumor{At: es.Round, Node: es.Node, Rumor: phonecall.RumorID(es.Rumor)}, nil
	case "zone-outage":
		return ZoneOutage{At: es.Round, Zone: es.Zone}, nil
	case "zone-heal":
		return ZoneHeal{At: es.Round, Zone: es.Zone}, nil
	case "partition":
		return Partition{At: es.Round}, nil
	case "heal":
		return HealPartition{At: es.Round}, nil
	default:
		return nil, fmt.Errorf("%w: unknown event type %q (have crash, join, loss, inject, corrupt, zone-outage, zone-heal, partition, heal)", ErrSpec, es.Type)
	}
}

// expand runs one JSON generator invocation.
func (gs GeneratorSpec) expand(n, horizon int) ([]Event, error) {
	switch gs.Type {
	case "periodic-churn":
		return PeriodicChurn(n, gs.Start, gs.Period, gs.Count, gs.DownFor, horizon, gs.Seed), nil
	case "flap":
		if len(gs.Nodes) == 0 {
			return nil, fmt.Errorf("%w: flap generator needs nodes", ErrSpec)
		}
		return Flap(gs.Nodes, gs.Start, gs.DownFor, gs.UpFor, horizon), nil
	case "waves":
		growth := gs.Growth
		if growth <= 0 {
			growth = 1
		}
		return Waves(n, gs.Start, gs.Gap, gs.Waves, gs.Count, growth, gs.Seed), nil
	case "infiltrate":
		adv := AdversarySpec{Kind: AdversaryKind(gs.Behavior), Rate: gs.Rate, Seed: gs.Seed}
		if err := adv.Validate(n); err != nil {
			return nil, err
		}
		return Infiltrate(n, gs.Start, gs.Gap, gs.Waves, gs.Count, adv, gs.Seed), nil
	default:
		return nil, fmt.Errorf("%w: unknown generator type %q (have periodic-churn, flap, waves, infiltrate)", ErrSpec, gs.Type)
	}
}
