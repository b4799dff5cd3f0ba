package scenario

import (
	"errors"
	"fmt"

	"repro/internal/failure"
	"repro/internal/phonecall"
	"repro/internal/rng"
)

// Adversarial timeline events: CorruptAt installs a Byzantine behavior
// (internal/phonecall's Behavior seam) on a node set at a scheduled round,
// exactly like CrashAt fails one. Corruption composes with the crash/join/
// loss events — a corrupted node can later crash, a rejoined node stays
// corrupted — and, because behaviors are pure rewrites of outgoing traffic,
// the same CorruptAt runs unchanged on the simulator, the lock-step live
// runtime (through the wrapped engine callbacks) and the free-running
// runtime (which applies the same rewrites around its send path).

// ErrSpec marks scenario specification errors: malformed events, unknown
// kinds, out-of-range parameters. errors.Is-able through every Build and
// Validate path.
var ErrSpec = errors.New("invalid scenario")

// AdversaryKind names a misbehavior from the library.
type AdversaryKind string

// The misbehavior library (see internal/phonecall/behavior.go for the exact
// semantics of each).
const (
	// AdvLiar advertises wrong holdings: hides true rumor bits, forges bits
	// in the unregistered rumor space.
	AdvLiar AdversaryKind = "liar"
	// AdvSpammer floods junk pushes and junk pull-responses at Rate.
	AdvSpammer AdversaryKind = "spammer"
	// AdvEclipse silently drops all traffic between the corrupted node and
	// the Victims set.
	AdvEclipse AdversaryKind = "eclipse"
	// AdvStale answers with the holdings frozen at corruption time (mute
	// when the node held nothing).
	AdvStale AdversaryKind = "stale"
)

// AdversarySpec configures one misbehavior.
type AdversarySpec struct {
	// Kind selects the misbehavior.
	Kind AdversaryKind
	// Rate is the spammer's per-round spam probability in [0,1]; 0 defaults
	// to 1 (always spam). Ignored by the other kinds.
	Rate float64
	// Seed drives the liar's and spammer's hash streams.
	Seed uint64
	// Victims is the eclipse dropper's target set. Ignored by the other
	// kinds.
	Victims []int
}

// Validate checks the spec against the network size.
func (s AdversarySpec) Validate(n int) error {
	switch s.Kind {
	case AdvLiar, AdvSpammer, AdvEclipse, AdvStale:
	default:
		return fmt.Errorf("%w: unknown adversary kind %q (have liar, spammer, eclipse, stale)", ErrSpec, s.Kind)
	}
	if s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("%w: adversary rate %v outside [0,1]", ErrSpec, s.Rate)
	}
	if err := checkNodes(n, s.Victims); err != nil {
		return fmt.Errorf("%w: adversary victim %v", ErrSpec, err)
	}
	return nil
}

// CorruptAt installs the configured misbehavior on the listed nodes at the
// start of round At. Corrupted nodes keep running — they initiate, respond
// and receive — but their outgoing traffic is rewritten by the behavior.
// Corrupting an already-corrupted node replaces its behavior.
type CorruptAt struct {
	At        int
	Nodes     []int
	Adversary AdversarySpec
}

// EventRound implements Event.
func (e CorruptAt) EventRound() int { return e.At }

// Describe implements Event.
func (e CorruptAt) Describe() string {
	return fmt.Sprintf("corrupt %d nodes (%s)", len(e.Nodes), e.Adversary.Kind)
}

// masks is the optional Target capability the stale and liar behaviors read:
// the mask ledger's RumorTracker and the free-running mask slab have it.
type masks interface {
	Held(node int) uint64
	Registered() uint64
}

// Apply implements Event. On a target without masks (a closed algorithm) the
// stale adversary freezes to the empty mask (mute) and the liar forges nothing.
func (e CorruptAt) Apply(t Target) error {
	var held func(int) uint64
	var registered func() uint64
	if m, ok := t.(masks); ok {
		held, registered = m.Held, m.Registered
	}
	for _, i := range e.Nodes {
		b, err := e.BehaviorFor(i, held, registered)
		if err != nil {
			return fmt.Errorf("scenario: corrupt at round %d: %w", e.At, err)
		}
		t.SetBehavior(i, b)
	}
	return nil
}

// BehaviorFor builds the phonecall behavior this event installs on one node.
// held and registered supply the rumor state the adversary snapshots at
// corruption time; either may be nil when no tracker exists (closed
// algorithms, or reference drivers that carry their own state). Exported so
// the oracle's reference driver, which keeps its own holdings, constructs the
// exact same behavior from the same event.
func (e CorruptAt) BehaviorFor(node int, held func(int) uint64, registered func() uint64) (phonecall.Behavior, error) {
	switch e.Adversary.Kind {
	case AdvLiar:
		return phonecall.Liar{Seed: e.Adversary.Seed, Registered: registered}, nil
	case AdvSpammer:
		return phonecall.Spammer{Rate: e.Adversary.Rate, Seed: e.Adversary.Seed}, nil
	case AdvEclipse:
		return phonecall.NewEclipse(e.Adversary.Victims), nil
	case AdvStale:
		var frozen uint64
		if held != nil {
			frozen = held(node)
		}
		return phonecall.Stale{Frozen: frozen}, nil
	default:
		return nil, fmt.Errorf("%w: unknown adversary kind %q", ErrSpec, e.Adversary.Kind)
	}
}

// Infiltrate emits escalating corruption waves: wave k (k = 0, 1, …)
// corrupts count fresh random nodes at start + k·gap with the given
// misbehavior. The adversarial sibling of Waves: where Waves probes the o(F)
// crash-tolerance claim, Infiltrate probes graceful degradation as the
// Byzantine fraction grows mid-broadcast.
func Infiltrate(n, start, gap, waves, count int, adv AdversarySpec, seed uint64) []Event {
	if gap < 1 {
		gap = 1
	}
	var out []Event
	for k := 0; k < waves; k++ {
		batch := failure.Pick(n, count, rng.Mix(seed, 0xbadf00d, uint64(k)))
		if len(batch) == 0 {
			break
		}
		out = append(out, CorruptAt{At: start + k*gap, Nodes: batch, Adversary: adv})
	}
	return out
}
