package scenario_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// TestLoadSpec pins how a JSON spec file is loaded: repro.WithScenarioFile
// reads it and hands it to scenario.ParseSpec, so the run adopts the spec's
// name and size, and a missing file is a configuration error.
func TestLoadSpec(t *testing.T) {
	const spec = `{
  "name": "file spec",
  "n": 300,
  "rounds": 20,
  "algorithm": "push-pull",
  "seed": 1,
  "events": [{"type": "inject", "round": 1, "node": 0, "rumor": 0}]
}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := repro.Run(context.Background(), 0, repro.WithScenarioFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "file spec" || rep.N != 300 || len(rep.Rumors) != 1 {
		t.Fatalf("spec fields lost: Scenario = %q, N = %d, %d rumors", rep.Scenario, rep.N, len(rep.Rumors))
	}
	_, err = repro.Run(context.Background(), 0, repro.WithScenarioFile(filepath.Join(t.TempDir(), "missing.json")))
	if !errors.Is(err, repro.ErrInvalidConfig) {
		t.Fatalf("missing file: want ErrInvalidConfig, got %v", err)
	}
}
