package repro

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/harness"
	"repro/internal/run"
)

// Table is one reproduction experiment result in typed form: consumers can
// render it (Render), serialize it (MarshalJSON) or walk the rows directly,
// instead of re-parsing pre-rendered text.
type Table struct {
	// ID is the experiment identifier (E1..E10, E12); Title its one-line
	// description.
	ID    string
	Title string
	// Header names the columns; every row has one cell per column.
	Header []string
	Rows   [][]string
	// Notes carry the reading guide recorded under the table.
	Notes []string
}

// Render formats the table as aligned plain text — the format recorded in
// EXPERIMENTS.md.
func (t Table) Render() string {
	return harness.Table(t).Render()
}

// MarshalJSON serializes the table with stable lower-case keys.
func (t Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes})
}

// Experiment regenerates one of the paper-reproduction tables (E1–E10 and
// E12, see DESIGN.md and EXPERIMENTS.md) over the given network sizes and
// seeds and returns it as a typed Table. Empty slices select the default
// sweep; the options may tune PayloadBits, Workers and Delta for the sweep's
// runs.
func Experiment(id string, sizes []int, seeds []uint64, opts ...Option) (Table, error) {
	cfg := harness.DefaultSweep()
	if len(sizes) > 0 {
		cfg.Sizes = sizes
	}
	if len(seeds) > 0 {
		cfg.Seeds = seeds
	}
	s := settings{}
	for _, o := range opts {
		if o.apply != nil {
			o.apply(&s)
		}
	}
	if s.err != nil {
		return Table{}, s.err
	}
	if err := s.sweepOptions(); err != nil {
		return Table{}, err
	}
	cfg.Spec = s.spec
	table, err := harness.RunExperiment(id, cfg)
	if err != nil {
		return Table{}, err
	}
	return Table(table), nil
}

// ExperimentIDs lists the reproducible experiment tables.
func ExperimentIDs() []string { return harness.ExperimentIDs() }

// sweepOptions checks that the applied options make sense for an experiment
// sweep: only the sweep-tunable knobs (payload size, workers, Δ) may be
// set, and their values must pass the same boundary validation Run applies.
// Anything else — algorithms, seeds, timelines, engines — is fixed by the
// experiment definitions themselves, and silently ignoring such an option
// would misreport what the sweep ran.
func (s *settings) sweepOptions() error {
	sp := s.spec
	if sp.PayloadBits < 0 {
		return fmt.Errorf("%w: negative PayloadBits %d", ErrInvalidConfig, sp.PayloadBits)
	}
	if sp.Delta != 0 && sp.Delta < MinDelta {
		return fmt.Errorf("%w: Delta %d below the minimum %d", ErrInvalidConfig, sp.Delta, MinDelta)
	}
	// Everything but the three tunables must still be at its zero value; a
	// comparison against the zero Spec cannot forget a field added later.
	sp.PayloadBits, sp.Workers, sp.Delta = 0, 0, 0
	if !reflect.DeepEqual(sp, run.Spec{}) || s.topoSpec != nil || len(s.adversaries) != 0 || s.specN != 0 {
		return fmt.Errorf("%w: Experiment only takes the sweep-tunable options (WithPayloadBits, WithWorkers, WithDelta); algorithms, seeds, timelines and engines are fixed by the experiment definitions", ErrInvalidConfig)
	}
	return nil
}
