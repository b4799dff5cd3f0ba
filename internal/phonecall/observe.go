package phonecall

// Observation seam. A RoundObserver sees each round open and close with the
// engine's report (the run layer's tap). A CallObserver also sees each
// evaluated call, payload, response and delivered inbox, without changing
// what the protocol sees: the invariant checker (internal/oracle) validates
// the per-round model contracts of DESIGN.md §2 through it, under any
// protocol, while the engine runs sharded. BeginRound and EndRound run on the
// coordinator goroutine; the per-node methods run on the shard that owns the
// node and must be safe for per-node concurrent use, like protocol callbacks.

// RoundInfo tells the observer which callbacks the protocol supplied for the
// round, so absent observations ("no responses seen") can be told apart from
// suppressed ones ("responseOf was nil").
type RoundInfo struct {
	HasCall     bool
	HasResponse bool
	// Callers is the set of nodes whose call the round evaluates (nil: every
	// live node). It is the protocol's initiator set with the corrupted
	// nodes added, and is valid until EndRound returns.
	Callers NodeSet
}

// RoundObserver sees the rounds of a network.
type RoundObserver interface {
	// BeginRound opens the round before any call is evaluated (after the
	// OnRoundStart hook, so churn injected by a timeline is already visible).
	BeginRound(round int, info RoundInfo)
	// EndRound closes the round with the engine's own report.
	EndRound(rep RoundReport)
}

// CallObserver is an optional interface for RoundObservers that watch the
// round's callback traffic node by node.
type CallObserver interface {
	RoundObserver
	// ObserveCall sees node i's evaluated call. Shard goroutine.
	ObserveCall(i int, c Call)
	// ObservePayload sees the payload of node i's Push or Exchange call,
	// when the engine asks for it. Shard goroutine.
	ObservePayload(i int, m Message)
	// ObserveResponse sees node i's response evaluation. Shard goroutine.
	ObserveResponse(i int, m Message, ok bool)
	// ObserveDeliver sees node i's inbox exactly as the protocol does: the
	// slice aliases the engine arena and is only valid during the call.
	ObserveDeliver(i int, inbox []Message)
}

// NetworkBinder is an optional interface for RoundObservers that want a
// reference to the network they are observing (for example to read the live
// count when a round ends). Observe calls BindNetwork when it registers the
// observer.
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

// Observe registers an observer on the network (nil unregisters) and binds
// it when it is a NetworkBinder, so call it after the peer selector is
// installed: a binder may read it. A round-only observer leaves the round on
// its bare path. A CallObserver makes every round wrap its four callbacks
// (one method call per call, payload, response and inbox) and always run the
// delivery pass, so it sees inboxes even when the protocol passes no deliver.
// Either way results and metrics are unchanged, and nothing n-sized is added.
func (net *Network) Observe(obs RoundObserver) {
	net.observer = obs
	net.callObserver, _ = obs.(CallObserver)
	if b, ok := obs.(NetworkBinder); ok {
		b.BindNetwork(net)
	}
}

// LossSeed returns the seed driving the oblivious per-call loss process (set
// by SetLoss; meaningful only while LossRate() > 0). Exposed so external
// verifiers can recompute the documented drop decision.
func (net *Network) LossSeed() uint64 { return net.lossSeed }

// ControlBits returns the size in bits the engine charges for a pull request,
// exposed for external verifiers.
func (net *Network) ControlBits() int { return net.controlSize() }

// observedCallbacks wraps the round's callbacks with observer taps. callOf
// and payloadOf are non-nil (an empty round is handled before wrapping).
// deliver may be nil: the wrapper still taps the inboxes.
func (net *Network) observedCallbacks(
	obs CallObserver,
	callOf func(i int) Call,
	payloadOf func(i int) Message,
	responseOf func(i int) (Message, bool),
	deliver func(i int, inbox []Message),
) (func(i int) Call, func(i int) Message, func(i int) (Message, bool), func(i int, inbox []Message)) {
	wrappedCall := func(i int) Call {
		c := callOf(i)
		obs.ObserveCall(i, c)
		return c
	}
	wrappedPayload := func(i int) Message {
		m := payloadOf(i)
		obs.ObservePayload(i, m)
		return m
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
	return wrappedCall, wrappedPayload, wrappedResponse, wrappedDeliver
}
