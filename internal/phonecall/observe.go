package phonecall

// Verification seam: a RoundObserver intercepts everything that flows through
// the engine's callback contract — each evaluated intent, each response, each
// delivered inbox — without changing what the protocol sees. The invariant
// checker (internal/oracle) uses it to validate the per-round model contracts
// of DESIGN.md §2 under any protocol, closed or steppable, while the engine
// runs at full (sharded) speed.
//
// Observer methods for a node are invoked from whichever shard owns that node,
// concurrently with other shards — an observer must be safe for per-node
// concurrent use, exactly like protocol callbacks. BeginRound and EndRound run
// on the coordinator goroutine.

// RoundInfo tells the observer which callbacks the protocol supplied for the
// round, so absent observations ("no responses seen") can be told apart from
// suppressed ones ("responseOf was nil").
type RoundInfo struct {
	HasIntent   bool
	HasResponse bool
	HasDeliver  bool
}

// RoundObserver receives the engine's callback traffic for one round.
type RoundObserver interface {
	// BeginRound opens the round before any intent is evaluated (after the
	// OnRoundStart hook, so churn injected by a timeline is already visible).
	BeginRound(round int, info RoundInfo)
	// ObserveIntent sees node i's evaluated intent. Shard goroutine.
	ObserveIntent(i int, it Intent)
	// ObserveResponse sees node i's response evaluation. Shard goroutine.
	ObserveResponse(i int, m Message, ok bool)
	// ObserveDeliver sees node i's inbox exactly as the protocol does: the
	// slice aliases the engine arena and is only valid during the call.
	ObserveDeliver(i int, inbox []Message)
	// EndRound closes the round with the engine's own report.
	EndRound(rep RoundReport)
}

// NetworkBinder is an optional interface for RoundObservers that want a
// reference to the network they are observing (for example to read the live
// count when a round ends). Drivers that register observers on networks they
// construct internally (internal/run, internal/scenario) call
// BindNetwork before the first round.
type NetworkBinder interface {
	BindNetwork(net *Network)
}

// Holdings is the read side of a rumor-tracking run's ledger, as observers
// see it — one view over either holdings representation (the RumorTracker
// mask or the rumor-set window). Coordinator goroutine only: EndRound may
// call it, the per-node Observe methods may not.
type Holdings interface {
	// WorstSpread is the live-informed count of the worst-spread rumor in
	// flight — the "informed" a scenario result reports. It is the live count
	// once every injected rumor has converged and been retired, and 0 before
	// the first injection.
	WorstSpread() int
	// HoldsAll reports whether the node holds every rumor in flight (false
	// before the first injection).
	HoldsAll(node int) bool
}

// HoldingsBinder is an optional interface for RoundObservers that want the
// rumor state of the run they are observing. Drivers with a ledger (the
// scenario driver) call BindHoldings before the first round; closed
// algorithms have none and never do, and such observers must treat unbound
// holdings as unknown. An observer that needs the masks themselves (the
// oracle's honest-node invariants) type-asserts for them and stays off when
// the run keeps its holdings some other way.
type HoldingsBinder interface {
	BindHoldings(h Holdings)
}

// Observe registers an observer on the network (nil unregisters). While an
// observer is registered every round pays three wrapper closures and — so the
// observer can see inboxes even under protocols that pass a nil deliver — the
// delivery pass always runs; ExecCalls rounds take the Intent-form path so
// the observer sees whole intents. Results and metrics are unchanged. This is
// a debugging/verification mode, not a production path.
func (net *Network) Observe(obs RoundObserver) { net.observer = obs }

// LossSeed returns the seed driving the oblivious per-call loss process (set
// by SetLoss; meaningful only while LossRate() > 0). Exposed so external
// verifiers can recompute the documented drop decision.
func (net *Network) LossSeed() uint64 { return net.lossSeed }

// ControlBits returns the size in bits the engine charges for a pull request,
// exposed for external verifiers.
func (net *Network) ControlBits() int { return net.controlSize() }

// observedCallbacks wraps the round's callbacks with observer taps. intentOf
// must be non-nil (a nil intentOf means an empty round and is handled before
// wrapping). deliver may be nil: the wrapper still taps the inboxes.
func (net *Network) observedCallbacks(
	obs RoundObserver,
	intentOf func(i int) Intent,
	responseOf func(i int) (Message, bool),
	deliver func(i int, inbox []Message),
) (func(i int) Intent, func(i int) (Message, bool), func(i int, inbox []Message)) {
	wrappedIntent := func(i int) Intent {
		it := intentOf(i)
		obs.ObserveIntent(i, it)
		return it
	}
	wrappedResponse := responseOf
	if responseOf != nil {
		wrappedResponse = func(i int) (Message, bool) {
			m, ok := responseOf(i)
			obs.ObserveResponse(i, m, ok)
			return m, ok
		}
	}
	wrappedDeliver := func(i int, inbox []Message) {
		obs.ObserveDeliver(i, inbox)
		if deliver != nil {
			deliver(i, inbox)
		}
	}
	return wrappedIntent, wrappedResponse, wrappedDeliver
}
