package run

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/phonecall"
	"repro/internal/telemetry"
)

// This file is the run layer's observability tap: the one place that composes
// the optional per-run consumers — the user's Observer, the telemetry
// registry, and the JSONL trace writer — onto the engines' existing seams
// (phonecall.Observe for the barriered engines, OnFrontier plus the send-path
// counters for free-running). A spec with none of the three builds no tap at
// all, so the telemetry-off path installs no observer and stays on the
// engines' zero-allocation round loop.

// tap composes the per-run consumers for one execution.
type tap struct {
	engine Engine
	algo   string

	userObs *roundTap        // Spec.Observer, nil when unset
	tel     *engineTelemetry // barriered engines only
	reg     *telemetry.Registry
	tw      *traceWriter
}

// newTap builds the tap for a validated spec, or nil when the spec opts into
// nothing.
func newTap(s Spec) *tap {
	if s.Observer == nil && s.Telemetry == nil && s.TraceWriter == nil {
		return nil
	}
	t := &tap{engine: s.Engine, algo: s.workloadAlgo(), reg: s.Telemetry}
	if s.Observer != nil {
		t.userObs = &roundTap{fn: s.Observer}
	}
	if s.TraceWriter != nil {
		t.tw = newTraceWriter(s.TraceWriter)
	}
	if s.Telemetry != nil && s.Engine != EngineFreeRunning {
		t.tel = newEngineTelemetry(s.Telemetry, t.algo, s.Engine.String())
	}
	return t
}

// engineObserver returns the composed RoundObserver for the barriered engines
// (nil when no consumer needs one).
func (t *tap) engineObserver() phonecall.RoundObserver {
	if t == nil {
		return nil
	}
	var parts []phonecall.RoundObserver
	if t.userObs != nil {
		parts = append(parts, t.userObs)
	}
	if t.tel != nil {
		parts = append(parts, t.tel)
	}
	if t.tw != nil {
		parts = append(parts, &traceObserver{tw: t.tw})
	}
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	default:
		return &multiObserver{parts: parts}
	}
}

// onFrontier returns the free-running frontier callback feeding every
// consumer, or nil when none listens.
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
	if t.userObs == nil && t.reg == nil && t.tw == nil {
		return nil
	}
	return func(fi live.FrontierInfo) {
		if t.userObs != nil {
			t.userObs.fn(RoundStats{Round: fi.Frontier, Live: fi.Live})
		}
		if frontier != nil {
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

// recordSendFailures folds the free-running transport's per-node OS send
// failures into the registry as repro_udp_send_failures_total{node}.
func recordSendFailures(reg *telemetry.Registry, nodeFails map[int]int64) {
	if reg == nil {
		return
	}
	for node, c := range nodeFails {
		reg.Counter("repro_udp_send_failures_total",
			telemetry.Label{Key: "node", Value: fmt.Sprintf("%d", node)}).Add(c)
	}
}

// multiObserver fans one engine observer stream out to several consumers,
// forwarding the optional binder interfaces too.
type multiObserver struct {
	parts []phonecall.RoundObserver
}

func (m *multiObserver) BindNetwork(net *phonecall.Network) {
	for _, p := range m.parts {
		if b, ok := p.(phonecall.NetworkBinder); ok {
			b.BindNetwork(net)
		}
	}
}

func (m *multiObserver) BindHoldings(h phonecall.Holdings) {
	for _, p := range m.parts {
		if b, ok := p.(phonecall.HoldingsBinder); ok {
			b.BindHoldings(h)
		}
	}
}

func (m *multiObserver) BeginRound(round int, info phonecall.RoundInfo) {
	for _, p := range m.parts {
		p.BeginRound(round, info)
	}
}

func (m *multiObserver) ObserveIntent(i int, it phonecall.Intent) {
	for _, p := range m.parts {
		p.ObserveIntent(i, it)
	}
}

func (m *multiObserver) ObserveResponse(i int, msg phonecall.Message, ok bool) {
	for _, p := range m.parts {
		p.ObserveResponse(i, msg, ok)
	}
}

func (m *multiObserver) ObserveDeliver(i int, inbox []phonecall.Message) {
	for _, p := range m.parts {
		p.ObserveDeliver(i, inbox)
	}
}

func (m *multiObserver) EndRound(rep phonecall.RoundReport) {
	for _, p := range m.parts {
		p.EndRound(rep)
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

func newTraceWriter(w io.Writer) *traceWriter {
	return &traceWriter{enc: json.NewEncoder(w)}
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

// traceObserver streams one "round" record per engine round. It binds the
// network (live and corrupted populations) and, on rumor-tracking runs, the
// holdings (worst-spread informed count; -1 without them).
type traceObserver struct {
	tw       *traceWriter
	net      *phonecall.Network
	holdings phonecall.Holdings
	begin    time.Time
}

func (t *traceObserver) BindNetwork(net *phonecall.Network)                  { t.net = net }
func (t *traceObserver) BindHoldings(h phonecall.Holdings)                   { t.holdings = h }
func (t *traceObserver) BeginRound(round int, info phonecall.RoundInfo)      { t.begin = time.Now() }
func (t *traceObserver) ObserveIntent(i int, it phonecall.Intent)            {}
func (t *traceObserver) ObserveResponse(i int, m phonecall.Message, ok bool) {}
func (t *traceObserver) ObserveDeliver(i int, inbox []phonecall.Message)     {}

func (t *traceObserver) EndRound(rep phonecall.RoundReport) {
	rec := traceRoundRecord{
		Type:       "round",
		Round:      rep.Round,
		Messages:   rep.Messages,
		Bits:       rep.Bits,
		MaxComms:   rep.MaxComms,
		Informed:   -1,
		DurationNs: time.Since(t.begin).Nanoseconds(),
	}
	if t.net != nil {
		rec.Live = t.net.LiveCount()
		rec.Corrupted = t.net.CorruptedCount()
	}
	if t.holdings != nil {
		rec.Informed = t.holdings.WorstSpread()
	}
	t.tw.write(rec)
}

// writeHeader emits the JSONL "run" record before the engines start.
func (t *tap) writeHeader(s Spec) {
	if t == nil || t.tw == nil {
		return
	}
	payload := s.PayloadBits
	if payload == 0 {
		payload = phonecall.DefaultPayloadBits
	}
	t.tw.write(traceRunRecord{
		Type:        "run",
		Engine:      s.Engine.String(),
		Algorithm:   t.algo,
		N:           s.N,
		Seed:        s.Seed,
		PayloadBits: payload,
		Workers:     s.Workers,
		Rounds:      s.Rounds,
	})
}

// writeSummary emits the phase breakdown and the final "result" record once
// the run finished.
func (t *tap) writeSummary(out Outcome) {
	if t == nil || t.tw == nil {
		return
	}
	for _, p := range out.Phases {
		t.tw.write(tracePhaseRecord{
			Type:     "phase",
			Name:     p.Name,
			Rounds:   p.Rounds,
			Messages: p.Messages,
			Bits:     p.Bits,
		})
	}
	for _, p := range out.ScenarioPhases {
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
		Algorithm:       out.Algorithm,
		Engine:          out.Engine.String(),
		N:               out.N,
		Rounds:          out.Rounds,
		CompletionRound: out.CompletionRound,
		Messages:        out.Messages,
		ControlMessages: out.ControlMessages,
		Bits:            out.Bits,
		MaxComms:        out.MaxCommsPerRound,
		Live:            out.Live,
		Informed:        out.Informed,
		AllInformed:     out.AllInformed,
		Drops:           out.Drops,
		SendFailures:    out.SendFailures,
	})
}
