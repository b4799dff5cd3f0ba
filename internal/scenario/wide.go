package scenario

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/rumorset"
)

// The wide path: the same steppable push/pull/push-pull protocols over the
// scalable rumor-set ledger (internal/rumorset) instead of the uint64
// holdings bitmask. A message carries the sorted rumor IDs the sender holds
// in its IDs field and is charged the digest bytes plus one payload per
// carried rumor; converged rumors are retired between rounds (GC), so the
// in-flight window — not the total stream length — bounds per-node state and
// message size. Workloads that fit the bitmask (≤64 dense IDs, no explicit
// window) never come here, keeping the legacy path bit-identical.

// wideProtocol binds one steppable protocol to a network and a rumor set.
type wideProtocol struct {
	algo     Algorithm
	net      *phonecall.Network
	set      *rumorset.Set
	overhead int // bits charged for the non-payload, non-digest part
	digests  []wideDigest
	// carries: the algorithm's calls carry holdings (the decision table's
	// answer for a node with some rumors but not all), so a calling node
	// builds its digest anyway.
	carries bool
	// active is the in-flight rumor count of the round about to execute: the
	// coordinator sets it after the round's events, and only it adds or
	// retires rumors.
	active int
}

// wideDigest is one node's holdings digest for one round: the sorted rumor IDs
// in the message's own ID type (the rumor-set kernels fill and read that
// buffer directly) and the size the message is charged. A node builds it at
// most once per round. The engine runs every intent and every response of a
// round before the first delivery, and only deliveries change holdings, so
// the digest a node's intent built is still exact when the same node answers
// a pull later in the round; both messages alias ids, which nothing writes
// again before the next round's intent pass.
type wideDigest struct {
	ids   []phonecall.NodeID
	bits  int
	round int // engine round ids and bits were built in (0: never)
}

func newWideProtocol(algo Algorithm, net *phonecall.Network, set *rumorset.Set) *wideProtocol {
	_, carries := algo.Call(false, false)
	return &wideProtocol{
		carries:  carries,
		algo:     algo,
		net:      net,
		set:      set,
		overhead: net.MessageSize(phonecall.Message{Tag: tagRumorSet}),
		digests:  make([]wideDigest, set.Nodes()),
	}
}

// digest returns node i's digest for the current round, building it on the
// round's first use: the sorted holdings plus the accounting — overhead, the
// summary encoding's bytes, and one b-bit payload per carried rumor. A node
// that did not initiate with its holdings (pull, or a round it sat out) builds
// it here when it is first pulled from.
func (p *wideProtocol) digest(i int) *wideDigest {
	d := &p.digests[i]
	if round := p.net.Round(); d.round != round {
		var summaryBytes int
		d.ids, summaryBytes = rumorset.AppendDigest(p.set, d.ids[:0], i)
		d.bits = p.overhead + summaryBytes*8 + len(d.ids)*p.net.PayloadBits()
		d.round = round
	}
	return d
}

func (d *wideDigest) message() phonecall.Message {
	return phonecall.Message{Tag: tagRumorSet, Rumor: true, IDs: d.ids, Bits: d.bits}
}

// intent implements the per-node initiation from the shared decision table,
// with the bitmask protocol's predicates read off the ledger: empty is "holds
// no in-flight rumor", complete is "holds every in-flight rumor". A protocol
// that carries holdings takes the count from the digest it needs anyway; one
// that never does (pull) only counts the row's bits.
func (p *wideProtocol) intent(i int) phonecall.Intent {
	var held int
	if p.carries {
		held = len(p.digest(i).ids)
	} else {
		held = p.set.HeldCount(i)
	}
	it, withHoldings := p.algo.Call(held == 0, held == p.active)
	if withHoldings {
		it.Payload = p.digest(i).message()
	}
	return it
}

// response answers pulls with the responder's holdings digest.
func (p *wideProtocol) response(j int) (phonecall.Message, bool) {
	d := p.digest(j)
	if !p.algo.Answers(len(d.ids) == 0) {
		return phonecall.Message{}, false
	}
	return d.message(), true
}

// deliver merges every received digest into the receiver's ledger row,
// straight from the messages. IDs that expired while the message was in
// flight fail the ledger lookup and are dropped (the slot-reuse ABA guard),
// and so does a carried value outside the rumor ID space.
func (p *wideProtocol) deliver(i int, inbox []phonecall.Message) {
	for _, m := range inbox {
		if m.Tag == tagRumorSet {
			rumorset.MergeDigest(p.set, i, m.IDs)
		}
	}
}

// wideFate is the coordinator's per-rumor ledger entry on the wide path.
type wideFate struct {
	injectRound     int
	completionRound int // round the rumor converged and was retired (0: never)
	informedAtEnd   int // live-informed when retired or when the budget ran out
}

// applyWide routes one timeline event to the network and the rumor-set
// ledger (the wide analogue of Event.Apply over the bitmask tracker).
func applyWide(ev Event, net *phonecall.Network, set *rumorset.Set) error {
	switch e := ev.(type) {
	case CrashAt:
		set.Fail(e.Nodes...)
		net.Fail(e.Nodes...)
	case JoinAt:
		set.Revive(e.Nodes...)
		net.Revive(e.Nodes...)
	case Loss:
		net.SetLoss(e.Rate, e.Seed)
	case InjectRumor:
		if err := set.Inject(e.Node, rumorset.ID(e.Rumor)); err != nil {
			return fmt.Errorf("scenario: round %d: %w", e.EventRound(), err)
		}
	case ZoneOutage:
		tv, err := topology(net, "zone outage")
		if err != nil {
			return err
		}
		if e.Zone < 0 || e.Zone >= tv.Zones() {
			return fmt.Errorf("scenario: zone %d outside the topology's [0,%d)", e.Zone, tv.Zones())
		}
		members := tv.ZoneMembers(e.Zone)
		set.Fail(members...)
		net.Fail(members...)
	case ZoneHeal:
		tv, err := topology(net, "zone heal")
		if err != nil {
			return err
		}
		if e.Zone < 0 || e.Zone >= tv.Zones() {
			return fmt.Errorf("scenario: zone %d outside the topology's [0,%d)", e.Zone, tv.Zones())
		}
		members := tv.ZoneMembers(e.Zone)
		set.Revive(members...)
		net.Revive(members...)
	case Partition, HealPartition:
		// Pure selector toggles; the ledger is untouched.
		return ev.Apply(net, nil)
	default:
		// Validate rejects everything else (CorruptAt) on the wide path.
		return fmt.Errorf("%w: event %T unsupported on the wide rumor-set path", ErrSpec, ev)
	}
	return nil
}

// wideInformed snapshots the live-informed count of every in-flight rumor,
// ordered by rumor ID (expired rumors no longer appear — their fate lives in
// the coordinator ledger).
func wideInformed(set *rumorset.Set, ids []rumorset.ID) ([]RumorCount, []rumorset.ID) {
	ids = set.ActiveIDs(ids[:0])
	out := make([]RumorCount, 0, len(ids))
	for _, id := range ids {
		out = append(out, RumorCount{Rumor: phonecall.RumorID(id), LiveInformed: set.LiveInformed(id)})
	}
	return out, ids
}

// runWide executes the scenario over the rumor-set ledger. Structure mirrors
// Run; the differences are the ledger (slots instead of bitmasks), the
// between-rounds GC retiring converged rumors, and the per-rumor fate ledger
// that remembers retired rumors after their slots are reused.
func runWide(ctx context.Context, sc Scenario, cfg Config, algo Algorithm, workers int) (res Result, err error) {
	window := sc.MaxInFlight
	if window == 0 {
		window = distinctRumors(sc.Events)
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
	if _, err := policy.Install(net, cfg.Topology, cfg.Policy); err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	set, err := rumorset.New(sc.N, window)
	if err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	if ctx != nil {
		net.SetContext(ctx)
		defer phonecall.RecoverAbort(&err)
	}
	if cfg.Observer != nil {
		if b, ok := cfg.Observer.(phonecall.NetworkBinder); ok {
			b.BindNetwork(net)
		}
		// TrackerBinder observers (the oracle's honest-node invariants) are
		// bitmask-path only; the wide path has no RumorTracker to bind.
		net.Observe(cfg.Observer)
	}
	proto := newWideProtocol(algo, net, set)
	events := sortEvents(sc.Events)

	res = Result{Scenario: sc.Name, Algorithm: algo, N: sc.N, Seed: cfg.Seed, Rounds: sc.Rounds}
	fates := map[rumorset.ID]*wideFate{}
	var scanIDs, retire []rumorset.ID

	next := 0
	cur := PhaseReport{FromRound: 1}
	closePhase := func(to int) {
		cur.ToRound = to
		cur.Live = net.LiveCount()
		cur.Informed, scanIDs = wideInformed(set, scanIDs)
		res.Phases = append(res.Phases, cur)
	}

	for r := 1; r <= sc.Rounds; r++ {
		if next < len(events) && events[next].EventRound() <= r && r > cur.FromRound {
			closePhase(r - 1)
			cur = PhaseReport{FromRound: r}
		}
		for next < len(events) && events[next].EventRound() <= r {
			ev := events[next]
			if err := applyWide(ev, net, set); err != nil {
				return Result{}, err
			}
			if inj, ok := ev.(InjectRumor); ok {
				if f := fates[rumorset.ID(inj.Rumor)]; f == nil {
					fates[rumorset.ID(inj.Rumor)] = &wideFate{injectRound: r}
				} else if f.completionRound > 0 {
					// Re-injection of a retired rumor opens a new epoch.
					f.completionRound, f.informedAtEnd = 0, 0
				}
			}
			cur.Events = append(cur.Events, ev.Describe())
			next++
		}

		proto.active = set.Active()
		rep := net.ExecRound(proto.intent, proto.response, proto.deliver)
		cur.Messages += rep.Messages
		cur.Bits += rep.Bits
		if rep.MaxComms > cur.MaxComms {
			cur.MaxComms = rep.MaxComms
		}

		// GC: retire every rumor the whole live population now holds,
		// recording its fate first (the slot is reused afterwards). Mirrors
		// the bitmask path's completion rule — later churn does not clear a
		// recorded completion — but additionally frees the slot.
		if live := net.LiveCount(); live > 0 {
			scanIDs = set.ActiveIDs(scanIDs[:0])
			retire = retire[:0]
			for _, id := range scanIDs {
				if li := set.LiveInformed(id); li >= live {
					f := fates[id]
					f.completionRound = r
					f.informedAtEnd = li
					retire = append(retire, id)
				}
			}
			set.Retire(retire...)
		}
	}
	closePhase(sc.Rounds)

	m := net.Metrics()
	st := set.Snapshot()
	res.Live = net.LiveCount()
	res.LostInjects = st.Lost
	res.RumorsExpired = st.Expired
	res.Messages = m.Messages
	res.ControlMessages = m.ControlMessages
	res.Bits = m.Bits
	res.MessagesPerNode = m.MessagesPerNode()
	res.MaxCommsPerRound = m.MaxCommsPerRound

	ordered := make([]rumorset.ID, 0, len(fates))
	for id := range fates {
		ordered = append(ordered, id)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, id := range ordered {
		f := fates[id]
		out := RumorOutcome{
			Rumor:           phonecall.RumorID(id),
			InjectRound:     f.injectRound,
			CompletionRound: f.completionRound,
		}
		if f.completionRound > 0 {
			// Retired: converged over the then-live population.
			out.LiveInformed = f.informedAtEnd
			out.LiveFraction = 1
		} else {
			out.LiveInformed = set.LiveInformed(id)
			if res.Live > 0 {
				out.LiveFraction = float64(out.LiveInformed) / float64(res.Live)
			}
		}
		res.Rumors = append(res.Rumors, out)
	}
	return res, nil
}
