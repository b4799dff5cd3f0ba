package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Handler serves the registry as a Prometheus /metrics endpoint — the one
// handler behind repro.MetricsRegistry.Handler and cmd/gossipnode.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE comment per metric family followed by
// its series, families and series in deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
			lastFamily = m.name
		}
		for _, s := range m.samples() {
			if _, err := fmt.Fprintf(w, "%s %s\n", s.ID(), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatBound renders a histogram bucket bound for its "le" label.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
