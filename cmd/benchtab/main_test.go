package main

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

// TestRunExperimentTable regenerates one experiment table on a tiny sweep
// and asserts the rendered markers.
func TestRunExperimentTable(t *testing.T) {
	out, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-experiment", "E1", "-sizes", "500", "-seeds", "1"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, marker := range []string{"E1", "round complexity", "cluster2", "log2 n"} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}
}
