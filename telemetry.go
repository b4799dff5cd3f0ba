package repro

import (
	"io"
	"net/http"

	"repro/internal/telemetry"
)

// MetricsRegistry collects a run's metric series: counters, gauges and
// histograms with stable Prometheus-style names (DESIGN.md §11 lists them).
// One registry can be shared across many runs — series accumulate — and
// scraped concurrently while runs execute: every instrument update is a
// single atomic operation on a pre-resolved handle, so collection never
// perturbs results and adds no allocation to the engines' round loops.
// Runs without WithTelemetry install no instrumentation at all.
type MetricsRegistry struct {
	reg *telemetry.Registry
}

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry {
	return &MetricsRegistry{reg: telemetry.NewRegistry()}
}

// MetricSample is one exported time-series value. Histograms appear expanded
// into their cumulative `_bucket{le="..."}`, `_sum` and `_count` series.
type MetricSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Snapshot returns every series in deterministic order (by name, then label
// set). Safe to call while runs execute.
func (m *MetricsRegistry) Snapshot() []MetricSample {
	if m == nil || m.reg == nil {
		return nil
	}
	return publicSamples(m.reg.Snapshot())
}

// publicSamples maps internal samples onto the public shape.
func publicSamples(in []telemetry.Sample) []MetricSample {
	if len(in) == 0 {
		return nil
	}
	out := make([]MetricSample, 0, len(in))
	for _, s := range in {
		ms := MetricSample{Name: s.Name, Value: s.Value}
		if len(s.Labels) > 0 {
			ms.Labels = make(map[string]string, len(s.Labels))
			for _, l := range s.Labels {
				ms.Labels[l.Key] = l.Value
			}
		}
		out = append(out, ms)
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per metric family, then its
// samples in deterministic order.
func (m *MetricsRegistry) WritePrometheus(w io.Writer) error {
	if m == nil || m.reg == nil {
		return nil
	}
	return m.reg.WritePrometheus(w)
}

// Handler returns an http.Handler serving the registry as a Prometheus
// /metrics endpoint.
func (m *MetricsRegistry) Handler() http.Handler {
	if m == nil || m.reg == nil {
		return telemetry.NewRegistry().Handler()
	}
	return m.reg.Handler()
}

// WithTelemetry collects the run's metrics into the registry: per-round
// traffic counters and population gauges labeled {algo,engine}, the
// round-duration histogram, and — on the free-running engine — live
// send-path counters, frontier gauges and per-node UDP send-failure
// counters. The Report's Snapshot method returns the registry state at the
// moment the run finished. Telemetry is observational: results are
// bit-identical with and without it.
func WithTelemetry(m *MetricsRegistry) Option {
	return Option{func(s *settings) {
		if m == nil {
			s.spec.Telemetry = nil
			return
		}
		s.spec.Telemetry = m.reg
	}}
}

// WithTraceWriter streams the execution to w as JSONL (one JSON object per
// line): a "run" header, one "round" record per engine round (or "frontier"
// advances on the free-running engine), the "phase" breakdown, and a final
// "result" record. Decode lines into TraceRecord. Write errors surface from
// Run after the execution completes; writes happen on the engine's
// coordinator goroutine, so w should be buffered or fast.
func WithTraceWriter(w io.Writer) Option {
	return Option{func(s *settings) { s.spec.TraceWriter = w }}
}

// TraceRecord is the decode superset of every JSONL trace record emitted by
// WithTraceWriter. Type discriminates: "run", "round", "frontier", "phase",
// "result". Fields not applicable to a record's type are zero.
type TraceRecord struct {
	Type string `json:"type"`

	// "run" header: the workload about to execute.
	Engine      string `json:"engine,omitempty"`
	Algorithm   string `json:"algorithm,omitempty"`
	N           int    `json:"n,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	PayloadBits int    `json:"payload_bits,omitempty"`
	Workers     int    `json:"workers,omitempty"`

	// "round": one barriered engine round. Informed is -1 when the run
	// tracks no rumor (closed broadcast algorithms).
	Round      int   `json:"round,omitempty"`
	Live       int   `json:"live,omitempty"`
	Messages   int64 `json:"messages,omitempty"`
	Bits       int64 `json:"bits,omitempty"`
	MaxComms   int   `json:"max_comms,omitempty"`
	Informed   int   `json:"informed,omitempty"`
	Corrupted  int   `json:"corrupted,omitempty"`
	DurationNs int64 `json:"duration_ns,omitempty"`

	// "frontier": one free-running frontier advance.
	Frontier int `json:"frontier,omitempty"`
	MaxRound int `json:"max_round,omitempty"`

	// "phase": one entry of the closed-algorithm phase breakdown or the
	// scenario driver's event-delimited phase trace.
	Name      string   `json:"name,omitempty"`
	FromRound int      `json:"from_round,omitempty"`
	ToRound   int      `json:"to_round,omitempty"`
	Events    []string `json:"events,omitempty"`

	// "result": the final summary ("rounds" doubles as the run header's
	// explicit budget).
	Rounds          int   `json:"rounds,omitempty"`
	CompletionRound int   `json:"completion_round,omitempty"`
	ControlMessages int64 `json:"control_messages,omitempty"`
	AllInformed     bool  `json:"all_informed,omitempty"`
	Drops           int64 `json:"drops,omitempty"`
	SendFailures    int64 `json:"send_failures,omitempty"`
}
