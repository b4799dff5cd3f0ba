package main

import (
	"strings"
	"testing"
)

// TestRunExperimentTable regenerates one experiment table on a tiny sweep
// and asserts the rendered markers.
func TestRunExperimentTable(t *testing.T) {
	out, err := runOut([]string{"-experiment", "E1", "-sizes", "500", "-seeds", "1"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, marker := range []string{"E1", "round complexity", "cluster2", "log2 n"} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}
}

// TestRunRejectsBadInput pins that a seed count below 1 is an error rather
// than a silent fall-back to the default sweep's three seeds, and that an
// unparsable size is refused.
func TestRunRejectsBadInput(t *testing.T) {
	for _, seeds := range []string{"0", "-2"} {
		if out, err := runOut([]string{"-experiment", "E4", "-sizes", "500", "-seeds", seeds}); err == nil {
			t.Errorf("-seeds %s accepted:\n%s", seeds, out)
		}
	}
	if _, err := runOut([]string{"-experiment", "E4", "-sizes", "500,x"}); err == nil {
		t.Error("unparsable size accepted")
	}
}

// runOut runs the command line and returns what it printed.
func runOut(args []string) (string, error) {
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}
