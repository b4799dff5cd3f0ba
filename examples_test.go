package repro_test

// Every examples/* walkthrough is built and executed on a small network, so
// a broken example fails `go test ./...` (and CI) instead of rotting
// silently. Each example takes -n precisely so this test — and anyone
// skimming the walkthroughs — can run it cheaply; the defaults keep the
// documented full-size behavior.

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// exampleRuns maps every examples/ directory to the small-n arguments the
// smoke test runs it with. faulttolerance self-asserts the o(F) guarantee
// and needs a size where its timed-wave regime is deterministic-green.
var exampleRuns = map[string][]string{
	"quickstart":     {"-n", "2000"},
	"comparison":     {"-n", "2000"},
	"boundeddelta":   {"-n", "2000"},
	"membership":     {"-n", "2000"},
	"churn":          {"-n", "2000"},
	"faulttolerance": {"-n", "3000"},
	"livegossip":     {"-n", "800"},
	"byzantine":      {"-n", "2000"},
	"zones":          {"-n", "1500"},
}

func TestExamplesBuildAndRun(t *testing.T) {
	dirs, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	binDir := t.TempDir()
	for _, mainFile := range dirs {
		name := filepath.Base(filepath.Dir(mainFile))
		t.Run(name, func(t *testing.T) {
			args, ok := exampleRuns[name]
			if !ok {
				t.Fatalf("examples/%s has no smoke-test entry in exampleRuns — add one", name)
			}
			bin := filepath.Join(binDir, name)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			run := exec.Command(bin, args...)
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("run %v: %v\n%s", args, err, out)
			}
			if len(out) == 0 {
				t.Error("example produced no output")
			}
		})
	}
	// The churn example's JSON twins (mask and rumor-set ledger) must stay
	// loadable too.
	for _, name := range []string{"spec.json", "spec_wide.json"} {
		if _, err := os.Stat(filepath.Join("examples", "churn", name)); err != nil {
			t.Errorf("examples/churn/%s: %v", name, err)
		}
	}
}
