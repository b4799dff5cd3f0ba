// Package scenario implements deterministic, timeline-driven dynamic-network
// scenarios on top of the phone-call simulator: timed crash waves and
// rejoins (churn), oblivious per-call message loss, and multi-rumor
// workloads. The paper's model (and the repository's E1–E7 experiments) is
// static — an oblivious adversary picks its victims before round 0 — whereas
// real gossip deployments live under continuous membership churn and loss;
// this package is what lets the reproduction measure how the paper's
// algorithms and the baselines behave under exactly those dynamics.
//
// A Scenario is a typed event timeline (CrashAt, JoinAt, Loss, InjectRumor,
// CorruptAt, zone events), each applied by its own Apply(Target) on every
// engine, over a fixed round budget. It can be executed two ways:
//
//   - Run drives one of the round-steppable multi-rumor gossip protocols
//     (push, pull, push-pull) and returns a per-phase trace — the full
//     dynamic workload, including rejoin-as-uninformed and several rumors
//     spreading concurrently.
//   - Timeline.Attach layers the same churn and loss events under ANY
//     existing protocol (the paper's clustering algorithms, the baselines)
//     through the engine's OnRoundStart hook, without changing the per-node
//     callback contract. InjectRumor events need a rumor ledger and are the one
//     event kind a closed algorithm cannot honor.
//
// Determinism contract: everything is a pure function of (scenario, seed).
// Events fire on the coordinator goroutine between rounds; random targets
// and loss drops are stateless hashes; the steppable protocols keep no
// shared mutable state beyond the engine's contract. Results are therefore
// bit-identical for any Workers value (locked in by the package tests), and
// scenarios compose with `-race` cleanly.
package scenario

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/rumorset"
	"repro/internal/trace"
)

// Event is one timeline entry. An event with EventRound() == r is applied at
// the start of engine round r (1-based, before any intent of that round is
// evaluated); values <= 1 apply before any communication at all.
type Event interface {
	// EventRound is the 1-based engine round at whose start the event fires.
	EventRound() int
	// Describe renders the event for per-phase traces.
	Describe() string
	// Apply executes the event against t: the one applier of every engine.
	Apply(t Target) error
}

// Target is what a timeline event acts on: the mask and set ledgers, closed
// (the bare network under a closed protocol) and the free-running runtime
// (internal/live). The methods have phonecall.Network's and RumorTracker's
// names and contracts; Inject errors on a target without rumor state.
type Target interface {
	Fail(nodes ...int)
	Revive(nodes ...int)
	Inject(node int, r phonecall.RumorID) error
	SetLoss(rate float64, seed uint64)
	SetBehavior(node int, b phonecall.Behavior)
	PeerSelector() phonecall.PeerSelector
}

// closed is the Target of a closed protocol's timeline: the bare network.
type closed struct{ *phonecall.Network }

func (closed) Inject(int, phonecall.RumorID) error {
	return fmt.Errorf("InjectRumor needs the scenario driver (closed protocols have no rumor tracker)")
}

// CrashAt fails the listed nodes at the start of round At. Crashed nodes
// stop initiating, stop responding and drop everything addressed to them;
// per the live-participant rule they are charged nothing from then on.
type CrashAt struct {
	At    int
	Nodes []int
}

// EventRound implements Event.
func (e CrashAt) EventRound() int { return e.At }

// Describe implements Event.
func (e CrashAt) Describe() string { return fmt.Sprintf("crash %d nodes", len(e.Nodes)) }

// Apply implements Event.
func (e CrashAt) Apply(t Target) error {
	t.Fail(e.Nodes...)
	return nil
}

// JoinAt revives (or late-starts) the listed nodes at the start of round At.
// Under the scenario driver a joining node starts uninformed — it forgets
// every rumor it held before crashing. Under a closed protocol (no
// ledger) the node rejoins with whatever protocol state it had,
// which models a process that was partitioned away rather than restarted.
type JoinAt struct {
	At    int
	Nodes []int
}

// EventRound implements Event.
func (e JoinAt) EventRound() int { return e.At }

// Describe implements Event.
func (e JoinAt) Describe() string { return fmt.Sprintf("join %d nodes", len(e.Nodes)) }

// Apply implements Event.
func (e JoinAt) Apply(t Target) error {
	t.Revive(e.Nodes...)
	return nil
}

// Loss sets the oblivious per-call drop probability from round At on. Drops
// are charged per the live-participant rule (DESIGN.md §2): the initiator
// pays for its attempt, the target never participates. Rate 0 switches loss
// off again.
type Loss struct {
	At   int
	Rate float64
	Seed uint64
}

// EventRound implements Event.
func (e Loss) EventRound() int { return e.At }

// Describe implements Event.
func (e Loss) Describe() string { return fmt.Sprintf("loss rate %.2f", e.Rate) }

// Apply implements Event.
func (e Loss) Apply(t Target) error {
	t.SetLoss(e.Rate, e.Seed)
	return nil
}

// InjectRumor hands rumor Rumor to node Node at the start of round At —
// multi-rumor workloads inject different rumors at different nodes and
// times. Requires the scenario driver (a closed algorithm has no per-rumor
// state to inject into).
type InjectRumor struct {
	At    int
	Node  int
	Rumor phonecall.RumorID
}

// EventRound implements Event.
func (e InjectRumor) EventRound() int { return e.At }

// Describe implements Event.
func (e InjectRumor) Describe() string {
	return fmt.Sprintf("inject rumor %d at node %d", e.Rumor, e.Node)
}

// Apply implements Event.
func (e InjectRumor) Apply(t Target) error {
	if err := t.Inject(e.Node, e.Rumor); err != nil {
		return fmt.Errorf("scenario: round %d: %w", e.At, err)
	}
	return nil
}

// sortEvents returns a copy of events stably sorted by round, preserving the
// declaration order of same-round events (so Loss-then-Inject at round 1
// applies in that order).
func sortEvents(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].EventRound() < out[j].EventRound() })
	return out
}

// Timeline applies a sorted event sequence to a network as rounds execute,
// through the engine's OnRoundStart hook. It is the adapter that layers
// churn and loss under closed protocols (the paper's algorithms, the
// baselines) without touching their code.
type Timeline struct {
	events []Event
	next   int
	err    error
}

// NewTimeline builds a timeline from the events (stably sorted by round).
func NewTimeline(events ...Event) *Timeline {
	return &Timeline{events: sortEvents(events)}
}

// Attach registers the timeline on the network. Subsequent ExecCalls rounds
// fire due events before evaluating calls. Check Err after the run: event
// application errors (for example InjectRumor, which needs a ledger) stop the
// timeline but, running inside the engine, cannot abort the protocol.
func (tl *Timeline) Attach(net *phonecall.Network) {
	net.OnRoundStart(func(round int) { tl.advance(net, round) })
}

// advance applies every event due at or before round.
func (tl *Timeline) advance(net *phonecall.Network, round int) {
	for tl.err == nil && tl.next < len(tl.events) && tl.events[tl.next].EventRound() <= round {
		tl.err = tl.events[tl.next].Apply(closed{net})
		tl.next++
	}
}

// Err returns the first event-application error, if any.
func (tl *Timeline) Err() error { return tl.err }

// Remaining returns the number of events that have not fired yet (events
// scheduled past the rounds actually executed).
func (tl *Timeline) Remaining() int { return len(tl.events) - tl.next }

// Scenario is a deterministic dynamic-network workload: a network size, a
// round budget, a steppable protocol, and a typed event timeline.
type Scenario struct {
	// Name labels the scenario in traces and tables.
	Name string
	// N is the network size (required, >= 2).
	N int
	// Rounds is the round budget (required, >= 1). Dynamic workloads have no
	// global termination — rumors can keep re-spreading to joiners — so the
	// budget is explicit rather than derived.
	Rounds int
	// Algorithm selects the steppable protocol; defaults to AlgoPushPull.
	Algorithm Algorithm
	// Events is the timeline. It must inject at least one rumor (a scenario
	// without rumors measures nothing). Order among same-round events is
	// preserved.
	Events []Event
	// MaxInFlight bounds the rumor-set window on the wide (>64-rumor) path; 0
	// sizes the window to hold every distinct injected rumor. Setting it also
	// forces the wide path for small workloads (conformance testing against
	// the bitmask path). An injection that finds the window full — GC has not
	// reclaimed enough converged rumors — aborts the run with
	// rumorset.ErrFull; preplanned timelines have no one to backpressure.
	MaxInFlight int
}

// Wide reports whether the scenario needs the scalable rumor-set path: a
// rumor ID beyond the bitmask range, or an explicit MaxInFlight window.
func (sc Scenario) Wide() bool {
	if sc.MaxInFlight > 0 {
		return true
	}
	for _, ev := range sc.Events {
		if inj, ok := ev.(InjectRumor); ok && inj.Rumor >= phonecall.MaxRumors {
			return true
		}
	}
	return false
}

// distinctRumors counts the distinct rumor IDs the timeline injects.
func distinctRumors(events []Event) int {
	seen := map[phonecall.RumorID]bool{}
	for _, ev := range events {
		if inj, ok := ev.(InjectRumor); ok {
			seen[inj.Rumor] = true
		}
	}
	return len(seen)
}

// ValidateEvents bounds-checks a timeline against an n-node network: node
// indexes, loss rates, rumor IDs, and adversary specs. With ValidateZones it
// is the single validation authority shared by the scenario driver, the run
// layer, and the live engines, so every engine rejects an invalid event
// identically — up-front, with an ErrSpec-typed error — instead of one engine
// erroring and another silently ignoring the event. wide lifts the bitmask
// rumor-ID bound (the rumor-set path accepts the full uint32 space) but
// rejects CorruptAt: the byzantine behaviors rewrite uint64 holdings masks
// and have no wide equivalent.
func ValidateEvents(n int, wide bool, events []Event) error {
	for _, ev := range events {
		switch e := ev.(type) {
		case CrashAt:
			if err := checkNodes(n, e.Nodes); err != nil {
				return fmt.Errorf("%w: crash at round %d: %w", ErrSpec, e.At, err)
			}
		case JoinAt:
			if err := checkNodes(n, e.Nodes); err != nil {
				return fmt.Errorf("%w: join at round %d: %w", ErrSpec, e.At, err)
			}
		case Loss:
			if e.Rate < 0 || e.Rate > 1 {
				return fmt.Errorf("%w: loss rate %v outside [0,1]", ErrSpec, e.Rate)
			}
		case InjectRumor:
			if e.Node < 0 || e.Node >= n {
				return fmt.Errorf("%w: inject node %d outside [0,%d)", ErrSpec, e.Node, n)
			}
			if !wide && e.Rumor >= phonecall.MaxRumors {
				return fmt.Errorf("%w: rumor id %d outside the bitmask range [0,%d) (wide rumor-set runs lift the cap)", ErrSpec, e.Rumor, phonecall.MaxRumors)
			}
		case CorruptAt:
			if wide {
				return fmt.Errorf("%w: corrupt at round %d: byzantine behaviors need the ≤%d-rumor bitmask path", ErrSpec, e.At, phonecall.MaxRumors)
			}
			if err := checkNodes(n, e.Nodes); err != nil {
				return fmt.Errorf("%w: corrupt at round %d: %w", ErrSpec, e.At, err)
			}
			if err := e.Adversary.Validate(n); err != nil {
				return fmt.Errorf("corrupt at round %d: %w", e.At, err)
			}
		}
	}
	return nil
}

// ValidateZones checks the zone and partition events against the installed
// topology's zone count; zones = 0 means no topology. It is ValidateEvents'
// second half, run by every engine once its peer selector is known (a JSON
// spec is validated before any topology is), so an outage of a zone the
// topology lacks is an ErrSpec-typed error before round 1, never an event
// silently dropped or failing when it fires.
func ValidateZones(zones int, events []Event) error {
	for _, ev := range events {
		zone := 0 // partition events name no zone; 0 exists in any topology
		switch e := ev.(type) {
		case ZoneOutage:
			zone = e.Zone
		case ZoneHeal:
			zone = e.Zone
		case Partition, HealPartition:
		default:
			continue
		}
		if zones == 0 {
			return fmt.Errorf("%w: %s needs a topology", ErrSpec, ev.Describe())
		}
		if zone < 0 || zone >= zones {
			return fmt.Errorf("%w: %s outside the topology's %d zones", ErrSpec, ev.Describe(), zones)
		}
	}
	return nil
}

// Validate checks the scenario against the network size and protocol
// constraints.
func (sc Scenario) Validate() error {
	if sc.N < 2 {
		return fmt.Errorf("scenario: need N >= 2 (got %d)", sc.N)
	}
	if sc.Rounds < 1 {
		return fmt.Errorf("scenario: need Rounds >= 1 (got %d)", sc.Rounds)
	}
	if _, err := sc.Algorithm.OrDefault(); err != nil {
		return err
	}
	if err := ValidateEvents(sc.N, sc.Wide(), sc.Events); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	injects := 0
	crashedAt := map[int]map[int]bool{} // round -> crashed node set
	var corrupts []CorruptAt
	for _, ev := range sc.Events {
		switch e := ev.(type) {
		case CrashAt:
			set := crashedAt[e.At]
			if set == nil {
				set = make(map[int]bool, len(e.Nodes))
				crashedAt[e.At] = set
			}
			for _, i := range e.Nodes {
				set[i] = true
			}
		case InjectRumor:
			injects++
		case CorruptAt:
			corrupts = append(corrupts, e)
		}
	}
	// Corrupting and crashing the same node in the same round is ambiguous
	// (does the behavior ever act?) and always a spec mistake.
	for _, e := range corrupts {
		set := crashedAt[e.At]
		if set == nil {
			continue
		}
		for _, i := range e.Nodes {
			if set[i] {
				return fmt.Errorf("%w: node %d is both corrupted and crashed at round %d", ErrSpec, i, e.At)
			}
		}
	}
	if injects == 0 {
		return fmt.Errorf("%w: timeline injects no rumor", ErrSpec)
	}
	if sc.MaxInFlight < 0 {
		return fmt.Errorf("%w: negative MaxInFlight %d", ErrSpec, sc.MaxInFlight)
	}
	return nil
}

func checkNodes(n int, nodes []int) error {
	for _, i := range nodes {
		if i < 0 || i >= n {
			return fmt.Errorf("node %d outside [0,%d)", i, n)
		}
	}
	return nil
}

// Config carries the execution parameters that are not part of the scenario
// itself.
type Config struct {
	// Seed drives the execution (node IDs, random targets). Independent of
	// any event seeds, which stay oblivious to it.
	Seed uint64
	// PayloadBits is the per-rumor payload size b (default 256).
	PayloadBits int
	// Workers is the engine shard count; <= 0 defaults to GOMAXPROCS.
	// Results are bit-identical for any value.
	Workers int
	// Observer, when non-nil, sees every executed round through the engine's
	// observer seam (phonecall.Observe, which binds a NetworkBinder to the
	// run's network; a HoldingsBinder is bound to its ledger) — per-round
	// streaming stats without changing results.
	Observer phonecall.RoundObserver
	// Topology, when non-nil, attributes the nodes (zones, latency classes,
	// capacity, reputation) and enables zone/partition events. Its length
	// must equal the scenario's N.
	Topology *policy.Table
	// Policy, when non-nil, biases random contacts over the topology (hard
	// constraints + weighted scoring). Requires Topology. Nil with a
	// topology keeps selection uniform, bit-identical to no topology at all.
	Policy *policy.Policy
}

// Result is trace.Result, the repository's one outcome type. The alias exists
// for bench/layers.go alone: bench/ is frozen and its traced driver declares
// `var res scenario.Result`.
type Result = trace.Result

// fate is a rumor's outcome under construction. The driver keeps it because
// the ledger may not: a retired rumor's slot is reused.
type fate struct {
	trace.RumorOutcome
	retired bool // the ledger dropped the rumor when it completed
}

// execRound runs one engine round inside the ledger's round bracket. The
// bracket closes on the abort path too — a done ctx panics out of ExecCalls —
// so a cancelled wide run does not leave its set's read view held.
func execRound(net *phonecall.Network, l ledger, call func(int) phonecall.Call,
	payload func(int) phonecall.Message, response func(int) (phonecall.Message, bool),
	deliver func(int, []phonecall.Message)) phonecall.RoundReport {
	l.beginRound()
	defer l.endRound()
	return net.ExecCalls(nil, call, payload, response, deliver)
}

// Run executes the scenario with one of the steppable multi-rumor protocols
// and fills in the result: the per-phase trace, every rumor's fate, and the
// run-level outcome folded from them. The execution is bit-identical for any
// cfg.Workers value. A done ctx aborts between rounds with the context's
// error.
func Run(ctx context.Context, sc Scenario, cfg Config) (res Result, err error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	algo, err := sc.Algorithm.OrDefault()
	if err != nil {
		return Result{}, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	net, err := phonecall.New(phonecall.Config{
		N:           sc.N,
		Seed:        cfg.Seed,
		PayloadBits: cfg.PayloadBits,
		Workers:     workers,
	})
	if err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	sel, err := policy.Install(net, cfg.Topology, cfg.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	zones := 0
	if sel != nil {
		zones = sel.Zones()
	}
	if err := ValidateZones(zones, sc.Events); err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	// The one place a holdings representation is chosen, from what the
	// timeline shows, and its per-node callbacks are resolved.
	var (
		l        ledger
		call     func(int) phonecall.Call
		payload  func(int) phonecall.Message
		response func(int) (phonecall.Message, bool)
		deliver  func(int, []phonecall.Message)
	)
	if sc.Wide() {
		window := sc.MaxInFlight
		if window == 0 {
			window = distinctRumors(sc.Events)
		}
		set, err := rumorset.New(sc.N, window)
		if err != nil {
			return Result{}, fmt.Errorf("scenario: %w", err)
		}
		p := newWideProtocol(algo, net, set)
		l, call, payload, response, deliver = p, p.call, p.payload, p.response, p.deliver
	} else {
		p := newProtocol(algo, net, phonecall.NewRumorTracker(net))
		l, call, payload, response, deliver = p, p.call, p.payload, p.response, p.deliver
	}
	if ctx != nil {
		net.SetContext(ctx)
		defer phonecall.RecoverAbort(&err)
	}
	if cfg.Observer != nil {
		if b, ok := cfg.Observer.(phonecall.HoldingsBinder); ok {
			b.BindHoldings(l)
		}
		net.Observe(cfg.Observer)
	}
	events := sortEvents(sc.Events)

	fates := map[phonecall.RumorID]*fate{}
	var full, done []trace.RumorCount // per-round scratch
	var phases []trace.PhaseReport
	var expired int64

	next := 0
	cur := trace.PhaseReport{FromRound: 1}
	closePhase := func(to int) {
		cur.ToRound = to
		cur.Live = net.LiveCount()
		cur.Informed = l.informed(nil)
		phases = append(phases, cur)
	}

	for r := 1; r <= sc.Rounds; r++ {
		// Close the running phase before this round's events mutate the
		// network, so phase snapshots (live count, informed counts) describe
		// the state the phase actually ended in.
		if next < len(events) && events[next].EventRound() <= r && r > cur.FromRound {
			closePhase(r - 1)
			cur = trace.PhaseReport{FromRound: r}
		}
		for next < len(events) && events[next].EventRound() <= r {
			ev := events[next]
			if err := ev.Apply(l); err != nil {
				return Result{}, err
			}
			if inj, ok := ev.(InjectRumor); ok {
				if f := fates[inj.Rumor]; f == nil {
					fates[inj.Rumor] = &fate{RumorOutcome: trace.RumorOutcome{Rumor: inj.Rumor, InjectRound: r}}
				} else if f.retired {
					// Re-injection of a retired rumor opens a new epoch.
					*f = fate{RumorOutcome: trace.RumorOutcome{Rumor: inj.Rumor, InjectRound: f.InjectRound}}
				}
			}
			cur.Events = append(cur.Events, ev.Describe())
			next++
		}

		rep := execRound(net, l, call, payload, response, deliver)
		cur.Messages += rep.Messages
		cur.Bits += rep.Bits
		if rep.MaxComms > cur.MaxComms {
			cur.MaxComms = rep.MaxComms
		}

		// Completion: the first round at whose end every live node held the
		// rumor. Later churn (a joiner arriving uninformed) does not clear
		// an already-recorded completion.
		if live := net.LiveCount(); live > 0 {
			full, done = l.converged(full[:0], live), done[:0]
			for _, rc := range full {
				if f := fates[rc.Rumor]; f.CompletionRound == 0 {
					f.CompletionRound = r
					done = append(done, rc)
				}
			}
			if l.retire(done) {
				// Converged over the then-live population, for good.
				for _, rc := range done {
					f := fates[rc.Rumor]
					f.retired, f.LiveInformed, f.LiveFraction = true, rc.LiveInformed, 1
				}
				expired += int64(len(done))
			}
		}
	}
	closePhase(sc.Rounds)

	res = trace.Summarize(string(algo), net, 0, nil)
	res.Scenario, res.ScenarioPhases = sc.Name, phases
	res.LostInjects, res.RumorsExpired = l.LostInjects(), expired
	for _, rc := range cur.Informed { // still in flight: the budget ran out
		f := fates[rc.Rumor]
		f.LiveInformed = rc.LiveInformed
		if res.Live > 0 {
			f.LiveFraction = float64(rc.LiveInformed) / float64(res.Live)
		}
	}
	// The run's own outcome folds the fates: Informed is the worst-spread
	// rumor's live count, CompletionRound the last rumor's completion — or 0
	// unless every rumor completed.
	allComplete := len(fates) > 0
	res.CompletionRound = 0
	for _, f := range fates {
		if len(res.Rumors) == 0 || f.LiveInformed < res.Informed {
			res.Informed = f.LiveInformed
		}
		allComplete = allComplete && f.CompletionRound > 0
		res.CompletionRound = max(res.CompletionRound, f.CompletionRound)
		res.Rumors = append(res.Rumors, f.RumorOutcome)
	}
	if !allComplete {
		res.CompletionRound = 0
	}
	res.AllInformed = trace.Converged(res.Live, res.Informed) || allComplete && res.Live > 0
	slices.SortFunc(res.Rumors, func(a, b trace.RumorOutcome) int { return cmp.Compare(a.Rumor, b.Rumor) })
	return res, nil
}
