package run

import (
	"math/bits"
	"strconv"
	"time"

	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// instruments is the tap's telemetry consumer on the barriered engines: it
// folds every round record into a telemetry.Registry — per-round traffic
// counters, population gauges and the round-duration histogram, labeled by
// algorithm and engine. It only reads what the tap observed, so collecting
// cannot change results or metrics.
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
type instruments struct {
	reg *telemetry.Registry

	rounds, msgs, bitsSent *telemetry.Counter
	liveNodes, corrupted   *telemetry.Gauge
	maxComms               *telemetry.Gauge
	informed               *telemetry.Gauge // created lazily by bindHoldings
	duration               *telemetry.Histogram
	algo, engine           string

	// Policy instrumentation, created lazily when the bound network carries a
	// policy selector. The selector's counters are cumulative, so record feeds
	// deltas against the last-seen values.
	policySel             *policy.Selector
	policyEvals           *telemetry.Counter
	policyViolations      *telemetry.Counter
	lastEvals, lastViolns int64
	zoneInformed          []*telemetry.Gauge
	zoneCounts            []int64
}

// newInstruments resolves the instruments for one (algorithm, engine) pair up
// front, so the per-round updates never touch the registry map.
func newInstruments(reg *telemetry.Registry, algo, engine string) *instruments {
	by := []telemetry.Label{{Key: "algo", Value: algo}, {Key: "engine", Value: engine}}
	return &instruments{
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

// bindNetwork switches the policy series on when a policy-carrying peer
// selector is installed on the network (before observers are registered — the
// order every driver follows).
func (e *instruments) bindNetwork(net *phonecall.Network) {
	if pv, ok := net.PeerSelector().(*policy.Selector); ok {
		e.policySel = pv
		by := []telemetry.Label{{Key: "algo", Value: e.algo}, {Key: "engine", Value: e.engine}}
		e.policyEvals = e.reg.Counter("repro_policy_evaluations_total", by...)
		e.policyViolations = e.reg.Counter("repro_policy_violations_total", by...)
		e.lastEvals, e.lastViolns = pv.Stats()
	}
	e.bindZones()
}

// bindHoldings turns on the repro_informed_nodes gauge: rumor-tracking
// drivers bind their ledger; closed algorithms have none and the gauge is
// never registered, instead of exporting a misleading zero.
func (e *instruments) bindHoldings() {
	e.informed = e.reg.Gauge("repro_informed_nodes")
	e.bindZones()
}

// bindZones registers the per-zone informed gauges once both holdings and a
// topology are bound (binder order is driver-dependent).
func (e *instruments) bindZones() {
	if e.informed == nil || e.policySel == nil || e.zoneInformed != nil {
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

// record folds one round record into the registry. Coordinator goroutine,
// allocation-free.
func (e *instruments) record(rec traceRoundRecord, net *phonecall.Network, holdings phonecall.Holdings) {
	e.rounds.Add(1)
	e.msgs.Add(rec.Messages)
	e.bitsSent.Add(rec.Bits)
	e.maxComms.Max(int64(rec.MaxComms))
	e.duration.Observe(time.Duration(rec.DurationNs).Seconds())
	e.liveNodes.Set(int64(rec.Live))
	e.corrupted.Set(int64(rec.Corrupted))
	if e.informed != nil {
		e.informed.Set(int64(rec.Informed))
	}
	if e.policySel != nil {
		evals, violns := e.policySel.Stats()
		e.policyEvals.Add(evals - e.lastEvals)
		e.policyViolations.Add(violns - e.lastViolns)
		e.lastEvals, e.lastViolns = evals, violns
	}
	if e.zoneInformed != nil {
		clear(e.zoneCounts)
		for k, w := range net.Live() {
			for ; w != 0; w &= w - 1 {
				if i := k<<6 + bits.TrailingZeros64(w); holdings.HoldsAll(i) {
					e.zoneCounts[e.policySel.Zone(i)]++
				}
			}
		}
		for z, g := range e.zoneInformed {
			g.Set(e.zoneCounts[z])
		}
	}
}
