package run

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/phonecall"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file is the run layer's observability tap: the one observer that sits
// on the engines' seams (phonecall.Observe for the barriered engines,
// OnFrontier for free-running) and feeds the optional per-run consumers — the
// user's Observer, the telemetry registry, the JSONL trace writer. A spec with
// none of the three builds no tap at all, so the telemetry-off path installs
// no observer and stays on the engines' zero-allocation round loop.

// tap is the observer of one execution. On the barriered engines it is the
// phonecall.RoundObserver: it binds the network (and, on rumor-tracking runs,
// the holdings) once, times the round once, and builds one round record per
// EndRound that every consumer reads.
type tap struct {
	algo string

	fn  Observer            // Spec.Observer, nil when unset
	ins *instruments        // barriered engines with a registry
	reg *telemetry.Registry // nil when unset
	tw  *traceWriter        // nil when unset

	net      *phonecall.Network
	holdings phonecall.Holdings
	begin    time.Time
}

// newTap builds the tap for a validated spec, or nil when the spec opts into
// nothing.
func newTap(s Spec) *tap {
	if s.Observer == nil && s.Telemetry == nil && s.TraceWriter == nil {
		return nil
	}
	t := &tap{algo: s.workloadAlgo(), fn: s.Observer, reg: s.Telemetry}
	if s.TraceWriter != nil {
		t.tw = &traceWriter{enc: json.NewEncoder(s.TraceWriter)}
	}
	if s.Telemetry != nil && s.Engine != EngineFreeRunning {
		t.ins = newInstruments(s.Telemetry, t.algo, s.Engine.String())
	}
	return t
}

// engineObserver returns the tap as the barriered engines' RoundObserver —
// nil, not a typed-nil interface, when the spec built none.
func (t *tap) engineObserver() phonecall.RoundObserver {
	if t == nil {
		return nil
	}
	return t
}

// BindNetwork implements phonecall.NetworkBinder.
func (t *tap) BindNetwork(net *phonecall.Network) {
	t.net = net
	if t.ins != nil {
		t.ins.bindNetwork(net)
	}
}

// BindHoldings implements phonecall.HoldingsBinder. Only rumor-tracking
// drivers (the scenario driver, on either holdings representation) have a
// ledger to bind; without one the round record's Informed stays -1.
func (t *tap) BindHoldings(h phonecall.Holdings) {
	t.holdings = h
	if t.ins != nil {
		t.ins.bindHoldings()
	}
}

// BeginRound implements phonecall.RoundObserver (coordinator goroutine).
func (t *tap) BeginRound(round int, info phonecall.RoundInfo) { t.begin = time.Now() }

// The per-node observer methods run on shard goroutines; the tap reads
// nothing per node.
func (t *tap) ObserveCall(i int, c phonecall.Call)                 {}
func (t *tap) ObservePayload(i int, m phonecall.Message)           {}
func (t *tap) ObserveResponse(i int, m phonecall.Message, ok bool) {}
func (t *tap) ObserveDeliver(i int, inbox []phonecall.Message)     {}

// EndRound implements phonecall.RoundObserver: build the round's record and
// hand it to every consumer. Coordinator goroutine.
func (t *tap) EndRound(rep phonecall.RoundReport) {
	rec := traceRoundRecord{
		Type:       "round",
		Round:      rep.Round,
		Live:       t.net.LiveCount(),
		Messages:   rep.Messages,
		Bits:       rep.Bits,
		MaxComms:   rep.MaxComms,
		Informed:   -1,
		Corrupted:  t.net.CorruptedCount(),
		DurationNs: time.Since(t.begin).Nanoseconds(),
	}
	if t.holdings != nil {
		rec.Informed = t.holdings.WorstSpread()
	}
	if t.fn != nil {
		t.fn(RoundStats{Round: rec.Round, Live: rec.Live, Messages: rec.Messages, Bits: rec.Bits, MaxComms: rec.MaxComms})
	}
	if t.ins != nil {
		t.ins.record(rec, t.net, t.holdings)
	}
	if t.tw != nil {
		t.tw.write(rec)
	}
}

// onFrontier returns the free-running frontier callback feeding the same
// consumers, or nil without a tap. There is no global round there, so the
// callback sees the frontier as Round with zero traffic, the registry gets the
// frontier gauges and the trace a "frontier" record.
func (t *tap) onFrontier() func(live.FrontierInfo) {
	if t == nil {
		return nil
	}
	var frontier, skew, liveNodes, informed *telemetry.Gauge
	if t.reg != nil {
		frontier = t.reg.Gauge("repro_frontier_round")
		skew = t.reg.Gauge("repro_frontier_skew")
		liveNodes = t.reg.Gauge("repro_live_nodes")
		informed = t.reg.Gauge("repro_informed_nodes")
	}
	return func(fi live.FrontierInfo) {
		if t.fn != nil {
			t.fn(RoundStats{Round: fi.Frontier, Live: fi.Live})
		}
		if t.reg != nil {
			frontier.Set(int64(fi.Frontier))
			skew.Set(int64(fi.MaxRound - fi.Frontier))
			liveNodes.Set(int64(fi.Live))
			informed.Set(int64(fi.Informed))
		}
		if t.tw != nil {
			t.tw.write(traceFrontierRecord{
				Type:     "frontier",
				Frontier: fi.Frontier,
				MaxRound: fi.MaxRound,
				Live:     fi.Live,
				Informed: fi.Informed,
			})
		}
	}
}

// recordSendFailures folds the free-running transport's per-node send
// failures (oversize frames and OS write errors) into the registry as
// repro_udp_send_failures_total{node}.
func recordSendFailures(reg *telemetry.Registry, nodeFails map[int]int64) {
	if reg == nil {
		return
	}
	for node, c := range nodeFails {
		reg.Counter("repro_udp_send_failures_total",
			telemetry.Label{Key: "node", Value: fmt.Sprintf("%d", node)}).Add(c)
	}
}

// traceWriter serializes JSONL records onto the spec's TraceWriter. The
// mutex covers the free-running engine, where the monitor goroutine streams
// frontier records while Execute's goroutine owns the header and footer. The
// first write error sticks; Execute surfaces it after the run.
type traceWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

func (tw *traceWriter) write(rec any) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.err != nil {
		return
	}
	tw.err = tw.enc.Encode(rec)
}

func (tw *traceWriter) Err() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.err
}

// The JSONL trace schema (DESIGN.md §11): one "run" header, a stream of
// "round" (barriered engines) or "frontier" (free-running) records, then the
// "phase" breakdown and one final "result". The public repro.TraceRecord is
// the decode superset of all five.

type traceRunRecord struct {
	Type        string `json:"type"`
	Engine      string `json:"engine"`
	Algorithm   string `json:"algorithm"`
	N           int    `json:"n"`
	Seed        uint64 `json:"seed"`
	PayloadBits int    `json:"payload_bits"`
	Workers     int    `json:"workers,omitempty"`
	Rounds      int    `json:"rounds,omitempty"` // explicit budget, 0 = self-terminating
}

type traceRoundRecord struct {
	Type       string `json:"type"`
	Round      int    `json:"round"`
	Live       int    `json:"live"`
	Messages   int64  `json:"messages"`
	Bits       int64  `json:"bits"`
	MaxComms   int    `json:"max_comms"`
	Informed   int    `json:"informed"` // -1 when the run tracks no rumor
	Corrupted  int    `json:"corrupted"`
	DurationNs int64  `json:"duration_ns"`
}

type traceFrontierRecord struct {
	Type     string `json:"type"`
	Frontier int    `json:"frontier"`
	MaxRound int    `json:"max_round"`
	Live     int    `json:"live"`
	Informed int    `json:"informed"`
}

type tracePhaseRecord struct {
	Type      string   `json:"type"`
	Name      string   `json:"name,omitempty"`
	FromRound int      `json:"from_round,omitempty"`
	ToRound   int      `json:"to_round,omitempty"`
	Events    []string `json:"events,omitempty"`
	Rounds    int      `json:"rounds,omitempty"`
	Live      int      `json:"live,omitempty"`
	Messages  int64    `json:"messages"`
	Bits      int64    `json:"bits"`
	MaxComms  int      `json:"max_comms,omitempty"`
}

type traceResultRecord struct {
	Type            string `json:"type"`
	Algorithm       string `json:"algorithm"`
	Engine          string `json:"engine"`
	N               int    `json:"n"`
	Rounds          int    `json:"rounds"`
	CompletionRound int    `json:"completion_round"`
	Messages        int64  `json:"messages"`
	ControlMessages int64  `json:"control_messages"`
	Bits            int64  `json:"bits"`
	MaxComms        int    `json:"max_comms"`
	Live            int    `json:"live"`
	Informed        int    `json:"informed"`
	AllInformed     bool   `json:"all_informed"`
	Drops           int64  `json:"drops,omitempty"`
	SendFailures    int64  `json:"send_failures,omitempty"`
}

// writeHeader emits the JSONL "run" record before the engines start.
func (t *tap) writeHeader(s Spec) {
	if t == nil || t.tw == nil {
		return
	}
	t.tw.write(traceRunRecord{
		Type:        "run",
		Engine:      s.Engine.String(),
		Algorithm:   t.algo,
		N:           s.N,
		Seed:        s.Seed,
		PayloadBits: s.payloadBits(),
		Workers:     s.Workers,
		Rounds:      s.Rounds,
	})
}

// writeSummary emits the phase breakdown and the final "result" record once
// the run finished, and returns the first error any trace write hit.
func (t *tap) writeSummary(res trace.Result) error {
	if t == nil || t.tw == nil {
		return nil
	}
	for _, p := range res.Phases {
		t.tw.write(tracePhaseRecord{
			Type:     "phase",
			Name:     p.Name,
			Rounds:   p.Rounds,
			Messages: p.Messages,
			Bits:     p.Bits,
		})
	}
	for _, p := range res.ScenarioPhases {
		t.tw.write(tracePhaseRecord{
			Type:      "phase",
			FromRound: p.FromRound,
			ToRound:   p.ToRound,
			Events:    p.Events,
			Live:      p.Live,
			Messages:  p.Messages,
			Bits:      p.Bits,
			MaxComms:  p.MaxComms,
		})
	}
	t.tw.write(traceResultRecord{
		Type:            "result",
		Algorithm:       res.Algorithm,
		Engine:          res.Engine,
		N:               res.N,
		Rounds:          res.Rounds,
		CompletionRound: res.CompletionRound,
		Messages:        res.Messages,
		ControlMessages: res.ControlMessages,
		Bits:            res.Bits,
		MaxComms:        res.MaxCommsPerRound,
		Live:            res.Live,
		Informed:        res.Informed,
		AllInformed:     res.AllInformed,
		Drops:           res.Drops,
		SendFailures:    res.SendFailures,
	})
	return t.tw.Err()
}
