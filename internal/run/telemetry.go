package run

import (
	"strconv"
	"time"

	"repro/internal/phonecall"
	"repro/internal/telemetry"
)

// engineTelemetry feeds a telemetry.Registry from the engine's observer seam
// (phonecall.Observe): per-round traffic counters, population gauges and the
// round-duration histogram, labeled by algorithm and engine. It rides the
// same RoundObserver contract as every other observer, so registering it
// cannot change results or metrics — only runs that opt in pay the observer
// overhead at all.
//
// The exported series (see DESIGN.md §11):
//
//	repro_rounds_total{algo,engine}      executed rounds
//	repro_messages_total{algo,engine}    messages sent (payload + control)
//	repro_bits_total{algo,engine}        bits sent
//	repro_live_nodes                     live population after the last round
//	repro_corrupted_nodes                Byzantine-corrupted population
//	repro_max_comms_per_round            high-water mark of the engine's Δ
//	repro_informed_nodes                 live nodes holding the worst-spread
//	                                     rumor (rumor-tracking runs only)
//	repro_round_duration_seconds         histogram of wall time per round
//
// Policy-driven runs (a peer selector installed on the network) add:
//
//	repro_policy_evaluations_total{algo,engine}  selector decisions
//	repro_policy_violations_total{algo,engine}   decisions with no admissible
//	                                             peer (failed call in enforce
//	                                             mode, uniform fallback in
//	                                             permissive)
//	repro_zone_informed_nodes{zone}              live nodes per topology zone
//	                                             holding every rumor in
//	                                             flight (rumor-tracking runs)
type engineTelemetry struct {
	reg *telemetry.Registry

	rounds, msgs, bitsSent *telemetry.Counter
	liveNodes, corrupted   *telemetry.Gauge
	maxComms               *telemetry.Gauge
	informed               *telemetry.Gauge // created lazily on BindHoldings
	duration               *telemetry.Histogram
	algo, engine           string

	// Policy instrumentation, created lazily when the bound network carries a
	// policy view. The selector's counters are cumulative, so EndRound feeds
	// deltas against the last-seen values.
	policySel             policyView
	policyEvals           *telemetry.Counter
	policyViolations      *telemetry.Counter
	lastEvals, lastViolns int64
	zoneInformed          []*telemetry.Gauge
	zoneCounts            []int64

	net      *phonecall.Network
	holdings phonecall.Holdings
	begin    time.Time
}

// policyView is what the telemetry observer needs from an installed peer
// selector; internal/policy.Selector implements it.
type policyView interface {
	Stats() (evaluations, violations int64)
	Zones() int
	Zone(i int) int
}

// newEngineTelemetry resolves the instruments for one (algorithm, engine)
// pair up front, so the per-round updates never touch the registry map.
func newEngineTelemetry(reg *telemetry.Registry, algo, engine string) *engineTelemetry {
	by := []telemetry.Label{{Key: "algo", Value: algo}, {Key: "engine", Value: engine}}
	return &engineTelemetry{
		reg:       reg,
		rounds:    reg.Counter("repro_rounds_total", by...),
		msgs:      reg.Counter("repro_messages_total", by...),
		bitsSent:  reg.Counter("repro_bits_total", by...),
		liveNodes: reg.Gauge("repro_live_nodes"),
		corrupted: reg.Gauge("repro_corrupted_nodes"),
		maxComms:  reg.Gauge("repro_max_comms_per_round"),
		duration:  reg.Histogram("repro_round_duration_seconds", nil),
		algo:      algo,
		engine:    engine,
	}
}

// BindNetwork implements phonecall.NetworkBinder. A policy-carrying peer
// selector installed on the network (before observers are registered — the
// order every driver follows) switches the policy series on.
func (e *engineTelemetry) BindNetwork(net *phonecall.Network) {
	e.net = net
	if pv, ok := net.PeerSelector().(policyView); ok {
		e.policySel = pv
		by := []telemetry.Label{{Key: "algo", Value: e.algo}, {Key: "engine", Value: e.engine}}
		e.policyEvals = e.reg.Counter("repro_policy_evaluations_total", by...)
		e.policyViolations = e.reg.Counter("repro_policy_violations_total", by...)
		e.lastEvals, e.lastViolns = pv.Stats()
	}
	e.bindZones()
}

// BindHoldings implements phonecall.HoldingsBinder. Rumor-tracking drivers
// (the scenario driver, on either holdings representation) bind their
// ledger, which turns on the repro_informed_nodes gauge; closed algorithms
// have none and the gauge is never registered, instead of exporting a
// misleading zero.
func (e *engineTelemetry) BindHoldings(h phonecall.Holdings) {
	e.holdings = h
	e.informed = e.reg.Gauge("repro_informed_nodes")
	e.bindZones()
}

// bindZones registers the per-zone informed gauges once both holdings and a
// topology are bound (binder order is driver-dependent).
func (e *engineTelemetry) bindZones() {
	if e.holdings == nil || e.policySel == nil || e.zoneInformed != nil {
		return
	}
	zones := e.policySel.Zones()
	e.zoneInformed = make([]*telemetry.Gauge, zones)
	e.zoneCounts = make([]int64, zones)
	for z := range e.zoneInformed {
		e.zoneInformed[z] = e.reg.Gauge("repro_zone_informed_nodes",
			telemetry.Label{Key: "zone", Value: strconv.Itoa(z)})
	}
}

// BeginRound implements phonecall.RoundObserver (coordinator goroutine).
func (e *engineTelemetry) BeginRound(round int, info phonecall.RoundInfo) {
	e.begin = time.Now()
}

// ObserveIntent implements phonecall.RoundObserver (no-op; shard goroutine).
func (e *engineTelemetry) ObserveIntent(i int, it phonecall.Intent) {}

// ObserveResponse implements phonecall.RoundObserver (no-op).
func (e *engineTelemetry) ObserveResponse(i int, m phonecall.Message, ok bool) {}

// ObserveDeliver implements phonecall.RoundObserver (no-op).
func (e *engineTelemetry) ObserveDeliver(i int, inbox []phonecall.Message) {}

// EndRound implements phonecall.RoundObserver: fold the engine's own round
// report into the registry. Coordinator goroutine, allocation-free.
func (e *engineTelemetry) EndRound(rep phonecall.RoundReport) {
	e.rounds.Add(1)
	e.msgs.Add(rep.Messages)
	e.bitsSent.Add(rep.Bits)
	e.maxComms.Max(int64(rep.MaxComms))
	e.duration.Observe(time.Since(e.begin).Seconds())
	if e.net != nil {
		e.liveNodes.Set(int64(e.net.LiveCount()))
		e.corrupted.Set(int64(e.net.CorruptedCount()))
	}
	if e.holdings != nil {
		e.informed.Set(int64(e.holdings.WorstSpread()))
	}
	if e.policySel != nil {
		evals, violns := e.policySel.Stats()
		e.policyEvals.Add(evals - e.lastEvals)
		e.policyViolations.Add(violns - e.lastViolns)
		e.lastEvals, e.lastViolns = evals, violns
	}
	if e.zoneInformed != nil && e.net != nil {
		clear(e.zoneCounts)
		for i, n := 0, e.net.N(); i < n; i++ {
			if !e.net.IsFailed(i) && e.holdings.HoldsAll(i) {
				e.zoneCounts[e.policySel.Zone(i)]++
			}
		}
		for z, g := range e.zoneInformed {
			g.Set(e.zoneCounts[z])
		}
	}
}
