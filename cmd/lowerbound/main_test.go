package main

import (
	"strings"
	"testing"
)

// TestRunSmoke runs the lower-bound exploration at two small sizes and
// asserts the table header, the per-size rows and the optional Lemma 16 and
// trace outputs.
func TestRunSmoke(t *testing.T) {
	out, err := runOut([]string{"-n", "100,1000", "-seeds", "2", "-delta", "16", "-trace"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, marker := range []string{
		"knowledge-graph min T", "100", "1000",
		"Lemma 16 with Δ=16", "T=",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}
}

// TestRunDefaultsOmitExtras checks that -delta and -trace output stay off by
// default.
func TestRunDefaultsOmitExtras(t *testing.T) {
	out, err := runOut([]string{"-n", "100", "-seeds", "1"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out, "Lemma 16") {
		t.Errorf("Lemma 16 printed without -delta:\n%s", out)
	}
	if strings.Contains(out, "T=") {
		t.Errorf("feasibility trace printed without -trace:\n%s", out)
	}
}

// TestRunRejectsBadInput pins the error paths: an unparsable size, a seed
// count below 1 (which would print a NaN mean) and an unknown flag.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := runOut([]string{"-n", "12,notanumber"}); err == nil {
		t.Error("unparsable size accepted")
	}
	for _, seeds := range []string{"0", "-2"} {
		if out, err := runOut([]string{"-n", "100", "-seeds", seeds}); err == nil {
			t.Errorf("-seeds %s accepted:\n%s", seeds, out)
		}
	}
	if _, err := runOut([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// runOut runs the command line and returns what it printed.
func runOut(args []string) (string, error) {
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}
