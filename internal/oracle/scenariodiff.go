package oracle

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"sort"

	"repro/internal/phonecall"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Scenario differential: run a dynamic-network scenario through the real
// driver (scenario.Run — steppable protocols, RumorTracker, the sharded
// engine) and through a naive re-implementation on the reference Oracle —
// holdings as plain bitmask slices, live-informed counts recomputed by
// scanning, events applied by type switch — and demand identical Results:
// every phase report, every rumor outcome, every metric.

// ScenarioDiff executes the scenario both ways and returns a description of
// the first divergence (nil when the two executions agree). The scenario
// must be valid; validation errors are returned as-is.
func ScenarioDiff(sc scenario.Scenario, cfg scenario.Config) error {
	want, err := scenario.Run(context.Background(), sc, cfg)
	if err != nil {
		return err
	}
	got, err := referenceScenarioRun(sc, cfg)
	if err != nil {
		return fmt.Errorf("oracle: reference scenario run: %w", err)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("oracle: scenario %q diverges:\n  driver:    %+v\n  reference: %+v", sc.Name, want, got)
	}
	return nil
}

// refTracker is the naive rumor bookkeeping: one holdings bitmask per node,
// live-informed counts recomputed by scanning every node on demand. behav
// holds the per-node Byzantine behaviors installed by CorruptAt events
// (nil = honest), applied around the reference protocol exactly like the
// engine's own behavior wrap.
type refTracker struct {
	o     *Oracle
	held  []uint64
	used  uint64
	lost  int64 // injects that landed on a failed node
	behav []phonecall.Behavior
}

func (t *refTracker) liveInformed(r phonecall.RumorID) int {
	count := 0
	for i, h := range t.held {
		if h&(1<<r) != 0 && !t.o.IsFailed(i) {
			count++
		}
	}
	return count
}

// informedCounts mirrors the driver's per-phase snapshot: every registered
// rumor in ascending ID order with its live-informed count.
func (t *refTracker) informedCounts() []trace.RumorCount {
	var out []trace.RumorCount
	for id := 0; id < phonecall.MaxRumors; id++ {
		if t.used&(1<<id) != 0 {
			r := phonecall.RumorID(id)
			out = append(out, trace.RumorCount{Rumor: r, LiveInformed: t.liveInformed(r)})
		}
	}
	return out
}

// applyEvent applies one timeline event to the reference state, mirroring
// the semantics of Event.Apply under the scenario driver (crash keeps
// holdings, join clears them, inject registers and marks).
func applyEvent(o *Oracle, t *refTracker, ev scenario.Event) error {
	switch e := ev.(type) {
	case scenario.CrashAt:
		o.Fail(e.Nodes...)
	case scenario.JoinAt:
		for _, i := range e.Nodes {
			if i >= 0 && i < o.N() && o.IsFailed(i) {
				o.Revive(i)
				t.held[i] = 0 // rejoiners start uninformed
			}
		}
	case scenario.Loss:
		o.SetLoss(e.Rate, e.Seed)
	case scenario.InjectRumor:
		if e.Node < 0 || e.Node >= o.N() {
			return fmt.Errorf("inject node %d outside [0,%d)", e.Node, o.N())
		}
		if e.Rumor >= phonecall.MaxRumors {
			return fmt.Errorf("rumor id %d outside [0,%d)", e.Rumor, phonecall.MaxRumors)
		}
		t.used |= 1 << e.Rumor
		t.held[e.Node] |= 1 << e.Rumor
		if o.IsFailed(e.Node) {
			t.lost++ // a rejoin erases it again
		}
	case scenario.CorruptAt:
		// Mirror CorruptAt.Apply: the same behavior construction, wired to
		// the reference state (stale freezes the node's current reference
		// holdings, the liar forges outside the reference registered mask).
		held := func(i int) uint64 { return t.held[i] }
		registered := func() uint64 { return t.used }
		for _, i := range e.Nodes {
			if i < 0 || i >= o.N() {
				return fmt.Errorf("corrupt node %d outside [0,%d)", i, o.N())
			}
			b, err := e.BehaviorFor(i, held, registered)
			if err != nil {
				return err
			}
			t.behav[i] = b
		}
	default:
		return fmt.Errorf("unknown event type %T", ev)
	}
	return nil
}

// tagRumorSet is the steppable protocols' message discriminator (the
// holdings bitmask travels in Message.Value), fixed by internal/scenario.
const tagRumorSet uint8 = 111

// refProtocol re-implements the steppable multi-rumor protocols against the
// reference state.
type refProtocol struct {
	algo     scenario.Algorithm
	o        *Oracle
	t        *refTracker
	overhead int
}

func (p *refProtocol) message(held uint64) phonecall.Message {
	return phonecall.Message{
		Tag:   tagRumorSet,
		Value: held,
		Rumor: true,
		Bits:  p.overhead + bits.OnesCount64(held)*p.o.PayloadBits(),
	}
}

func (p *refProtocol) call(i int) phonecall.Call {
	held := p.t.held[i]
	random := phonecall.RandomTarget()
	switch p.algo {
	case scenario.AlgoPush:
		if held == 0 {
			return phonecall.Call{}
		}
		return phonecall.Call{Kind: phonecall.Push, Target: random}
	case scenario.AlgoPull:
		if held == p.t.used {
			return phonecall.Call{}
		}
		return phonecall.Call{Kind: phonecall.Pull, Target: random}
	default: // push-pull
		if held == 0 {
			return phonecall.Call{Kind: phonecall.Pull, Target: random}
		}
		return phonecall.Call{Kind: phonecall.Exchange, Target: random}
	}
}

// payload is a calling node's holdings, the payload of its Push or Exchange.
func (p *refProtocol) payload(i int) phonecall.Message { return p.message(p.t.held[i]) }

func (p *refProtocol) response(j int) (phonecall.Message, bool) {
	if p.algo == scenario.AlgoPush {
		return phonecall.Message{}, false
	}
	held := p.t.held[j]
	if held == 0 {
		return phonecall.Message{}, false
	}
	return p.message(held), true
}

// wrapCalls applies the installed behaviors around the reference protocol's
// calls and payloads for one round, mirroring the engine's behavior wrap:
// the target is pre-resolved through the model's documented contracts
// (RandomPeer for random targets, the ID directory for direct ones) before
// the behavior sees the call, and a corrupted node's rewritten payload is
// kept until the round asks for it.
func (t *refTracker) wrapCalls(round int, call func(int) phonecall.Call, payload func(int) phonecall.Message) (
	func(int) phonecall.Call, func(int) phonecall.Message,
) {
	rewritten := make(map[int]phonecall.Message)
	wrappedCall := func(i int) phonecall.Call {
		c := call(i)
		b := t.behav[i]
		if b == nil {
			return c
		}
		var m phonecall.Message
		if c.Kind == phonecall.Push || c.Kind == phonecall.Exchange {
			m = payload(i)
		}
		target := -1
		if c.Kind != phonecall.None {
			if c.Target.Random {
				target = phonecall.RandomPeer(t.o.N(), t.o.Seed(), round, i)
			} else if j, ok := t.o.IndexOf(c.Target.ID); ok && j != i {
				target = j
			}
		}
		c, rewritten[i] = b.RewriteCall(round, i, target, c, m)
		return c
	}
	wrappedPayload := func(i int) phonecall.Message {
		if t.behav[i] != nil {
			return rewritten[i]
		}
		return payload(i)
	}
	return wrappedCall, wrappedPayload
}

// wrapResponse is wrapCalls's response-side twin.
func (t *refTracker) wrapResponse(round int, response func(int) (phonecall.Message, bool)) func(int) (phonecall.Message, bool) {
	return func(j int) (phonecall.Message, bool) {
		m, ok := response(j)
		b := t.behav[j]
		if b == nil {
			return m, ok
		}
		return b.RewriteResponse(round, j, m, ok)
	}
}

func (p *refProtocol) deliver(i int, inbox []phonecall.Message) {
	var mask uint64
	for _, m := range inbox {
		if m.Tag == tagRumorSet {
			mask |= m.Value
		}
	}
	// Merge only registered rumors, like RumorTracker.MarkSet.
	p.t.held[i] |= mask & p.t.used
}

// referenceScenarioRun replays the scenario driver's execution loop — phase
// windows, event application, completion detection, final outcome assembly —
// on the reference engine and tracker.
func referenceScenarioRun(sc scenario.Scenario, cfg scenario.Config) (trace.Result, error) {
	algo := sc.Algorithm
	if algo == "" {
		algo = scenario.AlgoPushPull
	}
	o, err := New(phonecall.Config{N: sc.N, Seed: cfg.Seed, PayloadBits: cfg.PayloadBits})
	if err != nil {
		return trace.Result{}, err
	}
	tr := &refTracker{o: o, held: make([]uint64, sc.N), behav: make([]phonecall.Behavior, sc.N)}
	proto := &refProtocol{
		algo:     algo,
		o:        o,
		t:        tr,
		overhead: o.MessageSize(phonecall.Message{Tag: tagRumorSet}),
	}
	events := append([]scenario.Event(nil), sc.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].EventRound() < events[j].EventRound() })

	res := trace.Result{Scenario: sc.Name, Algorithm: string(algo), N: sc.N, Seed: cfg.Seed, Rounds: sc.Rounds}
	var injectRound, completionRound [phonecall.MaxRumors]int

	next := 0
	cur := trace.PhaseReport{FromRound: 1}
	closePhase := func(to int) {
		cur.ToRound = to
		cur.Live = o.LiveCount()
		cur.Informed = tr.informedCounts()
		res.ScenarioPhases = append(res.ScenarioPhases, cur)
	}

	for r := 1; r <= sc.Rounds; r++ {
		if next < len(events) && events[next].EventRound() <= r && r > cur.FromRound {
			closePhase(r - 1)
			cur = trace.PhaseReport{FromRound: r}
		}
		for next < len(events) && events[next].EventRound() <= r {
			ev := events[next]
			if err := applyEvent(o, tr, ev); err != nil {
				return trace.Result{}, err
			}
			if inj, ok := ev.(scenario.InjectRumor); ok && injectRound[inj.Rumor] == 0 {
				injectRound[inj.Rumor] = r
			}
			cur.Events = append(cur.Events, ev.Describe())
			next++
		}

		call, payload := tr.wrapCalls(r, proto.call, proto.payload)
		rep := o.ExecCalls(call, payload, tr.wrapResponse(r, proto.response), proto.deliver)
		cur.Messages += rep.Messages
		cur.Bits += rep.Bits
		if rep.MaxComms > cur.MaxComms {
			cur.MaxComms = rep.MaxComms
		}

		if live := o.LiveCount(); live > 0 {
			for id := 0; id < phonecall.MaxRumors; id++ {
				if tr.used&(1<<id) != 0 && completionRound[id] == 0 &&
					tr.liveInformed(phonecall.RumorID(id)) >= live {
					completionRound[id] = r
				}
			}
		}
	}
	closePhase(sc.Rounds)

	m := o.Metrics()
	res.Live = o.LiveCount()
	res.LostInjects = tr.lost
	res.Messages = m.Messages
	res.ControlMessages = m.ControlMessages
	res.Bits = m.Bits
	res.MessagesPerNode = float64(m.TotalMessages()) / float64(o.N())
	res.MaxCommsPerRound = m.MaxCommsPerRound
	// The run-level outcome, recomputed from the per-rumor ones: the worst
	// spread, and the last completion when every rumor completed.
	allComplete := false
	for k, rc := range tr.informedCounts() {
		out := trace.RumorOutcome{
			Rumor:           rc.Rumor,
			InjectRound:     injectRound[rc.Rumor],
			LiveInformed:    rc.LiveInformed,
			CompletionRound: completionRound[rc.Rumor],
		}
		if res.Live > 0 {
			out.LiveFraction = float64(rc.LiveInformed) / float64(res.Live)
		}
		res.Rumors = append(res.Rumors, out)
		if k == 0 {
			res.Informed, allComplete = out.LiveInformed, true
		}
		res.Informed = min(res.Informed, out.LiveInformed)
		allComplete = allComplete && out.CompletionRound > 0
		res.CompletionRound = max(res.CompletionRound, out.CompletionRound)
	}
	if !allComplete {
		res.CompletionRound = 0
	}
	res.AllInformed = res.Live > 0 && (allComplete || res.Informed == res.Live)
	return res, nil
}
