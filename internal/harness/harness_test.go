package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// The TestRun* tests below pin what the tables rely on from a trial — every
// algorithm runs, failures, loss and timed waves land, impossible timelines
// are refused, the live engines agree with the simulator — through
// run.Execute, the only way this package reaches an engine.

func exec(t *testing.T, spec run.Spec) trace.Result {
	t.Helper()
	out, err := run.Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func smallSweep() SweepConfig {
	return SweepConfig{Sizes: []int{500, 2000}, Seeds: []uint64{1, 2}}
}

func TestRunEveryAlgorithm(t *testing.T) {
	for _, a := range run.Algorithms() {
		res := exec(t, run.Spec{N: 2000, Algorithm: a, Seed: 1, Delta: 64})
		if !res.AllInformed {
			t.Fatalf("%s informed only %d/%d", a, res.Informed, res.Live)
		}
		if res.CompletionRound <= 0 || res.CompletionRound > res.Rounds {
			t.Fatalf("%s completion round %d out of range (total %d)", a, res.CompletionRound, res.Rounds)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := run.Execute(context.Background(), run.Spec{N: 100, Algorithm: "nope", Seed: 1}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestRunWithAdversary(t *testing.T) {
	res := exec(t, run.Spec{N: 5000, Algorithm: run.AlgoCluster2, Seed: 3, Failures: 500, FailureSeed: 9})
	if res.Live != 4500 {
		t.Fatalf("live = %d, want 4500", res.Live)
	}
	if res.Informed < 4400 {
		t.Fatalf("informed = %d, too many uninformed survivors", res.Informed)
	}
}

func TestRunAllFailed(t *testing.T) {
	if _, err := run.Execute(context.Background(), run.Spec{N: 100, Algorithm: run.AlgoPush, Seed: 1, Failures: 100}); err == nil {
		t.Fatal("all-failed network should error")
	}
}

// TestAggregateSummaries pins the trial loop and the summaries the tables
// read: one result per seed, in seed order, and measures that are undefined
// for a trial left out of the sample.
func TestAggregateSummaries(t *testing.T) {
	cfg := SweepConfig{Seeds: []uint64{1, 2, 3}}
	res, err := cfg.trials(same(run.Spec{N: 1000, Algorithm: run.AlgoPushPull}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || over(res, completion).Count != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, r := range res {
		if r.Seed != cfg.Seeds[i] {
			t.Fatalf("trial %d ran seed %d, want %d", i, r.Seed, cfg.Seeds[i])
		}
	}
	if got := over(res, informed); got.Min < 1 {
		t.Fatalf("push-pull should always inform everyone, got %v", got)
	}
	if over(res, totalRounds).Mean < over(res, completion).Mean {
		t.Fatal("total rounds cannot be below completion rounds")
	}
	if got := over([]trace.Result{{Live: 0}, {Live: 4, Informed: 3}}, informed); got.Count != 1 || got.Mean != 0.75 {
		t.Fatalf("informed fraction over a dead network should be left out, got %+v", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	out := tbl.Render()
	for _, want := range []string{"EX — demo", "a    bbbb", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("E99", smallSweep()); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestExperimentE4SmallSweep(t *testing.T) {
	tbl, err := RunExperiment("e4", smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("expected one row per size, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("lower bound violated in row %v", row)
		}
	}
}

func TestExperimentE6SmallSweep(t *testing.T) {
	cfg := SweepConfig{Sizes: []int{4000}, Seeds: []uint64{1, 2}}
	tbl, err := RunExperiment("E6", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestRunWithTimedCrashWave(t *testing.T) {
	// A mid-execution crash wave under a closed algorithm: the wave fires at
	// round 4 while cluster2 is building its clustering. Live count must
	// reflect the wave and the informed count must stay consistent
	// (0 <= informed <= live).
	res := exec(t, run.Spec{N: 5000, Algorithm: run.AlgoCluster2, Seed: 3,
		Failures: 500, FailureSeed: 9, FailureRound: 4})
	if res.Live != 4500 {
		t.Fatalf("live = %d, want 4500 after the wave", res.Live)
	}
	if res.Informed < 0 || res.Informed > res.Live {
		t.Fatalf("informed = %d out of range [0,%d]", res.Informed, res.Live)
	}
	if res.UninformedSurvivors() < 0 {
		t.Fatalf("negative uninformed survivors: %d", res.UninformedSurvivors())
	}
}

func TestRunWithLoss(t *testing.T) {
	spec := run.Spec{N: 2000, Algorithm: run.AlgoPushPull, Seed: 1}
	clean := exec(t, spec)
	spec.LossRate, spec.LossSeed = 0.3, 7
	lossy := exec(t, spec)
	if lossy.CompletionRound <= clean.CompletionRound {
		t.Fatalf("30%% loss did not slow push-pull: %d vs %d rounds",
			lossy.CompletionRound, clean.CompletionRound)
	}
}

func TestRunRejectsNeverFiredEvents(t *testing.T) {
	// Push-pull at n=500 finishes its fixed budget well before round 500; an
	// event scheduled there can never fire, and silently skipping the
	// requested dynamics must not look like surviving them.
	wave := scenario.CrashAt{At: 500, Nodes: failure.Random{Count: 50, Seed: 9}.Select(500)}
	_, err := run.Execute(context.Background(), run.Spec{N: 500, Algorithm: run.AlgoPushPull, Seed: 1,
		Events: []scenario.Event{wave}})
	if err == nil {
		t.Fatal("a timeline event scheduled past the final round should error, not be dropped")
	}
}

func TestRunRejectsInjectUnderClosedAlgorithm(t *testing.T) {
	_, err := run.Execute(context.Background(), run.Spec{N: 500, Algorithm: run.AlgoPushPull, Seed: 1,
		Events: []scenario.Event{scenario.InjectRumor{At: 1, Node: 0, Rumor: 0}}})
	if err == nil {
		t.Fatal("InjectRumor under a closed algorithm should error")
	}
}

func TestExperimentE8SmallSweep(t *testing.T) {
	cfg := SweepConfig{Sizes: []int{2000}, Seeds: []uint64{1}}
	tbl, err := RunExperiment("E8", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 crash fractions × 3 loss rates × 3 algorithms.
	if len(tbl.Rows) != 27 {
		t.Fatalf("E8 rows = %d, want 27", len(tbl.Rows))
	}
	// The lossless, crash-free push-pull row must report full coverage.
	first := tbl.Rows[0]
	if first[0] != "0.00" || first[1] != "0.00" || first[3] != "1.000" {
		t.Fatalf("baseline E8 row unexpected: %v", first)
	}
}

func TestExperimentIDsDispatch(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 11 {
		t.Fatalf("want 11 experiments, got %v", ids)
	}
}

// TestRunLockStepMatchesRun pins the conformance guarantee the E9/E12
// "identical to sim" columns report: the lock-step engine returns exactly
// what the simulator returns for the same spec, with model loss applied on
// the live runtime; and lock-step refuses anything but the plain mesh.
func TestRunLockStepMatchesRun(t *testing.T) {
	spec := run.Spec{N: 600, Algorithm: run.AlgoPushPull, Workers: 1, LossRate: 0.05, LossSeed: 3}
	sim, identical, err := SweepConfig{Seeds: []uint64{2}}.simAndLockStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Fatalf("live lock-step diverges from sim %+v", sim[0])
	}
	for name, bad := range map[string]run.Spec{
		"udp":        {N: 100, Engine: run.EngineLockStep, Transport: "udp"},
		"lossy mesh": {N: 100, Engine: run.EngineLockStep, Drop: 0.5},
	} {
		if _, err := run.Execute(context.Background(), bad); err == nil {
			t.Fatalf("lock-step over %s accepted", name)
		}
	}
}

// TestRunFreeRunningConverges smoke-tests the free-running rows' path.
func TestRunFreeRunningConverges(t *testing.T) {
	spec := run.Spec{N: 300, Seed: 4, Engine: run.EngineFreeRunning, Drop: 0.05, DropSeed: 8}
	if out := exec(t, spec); !out.AllInformed {
		t.Fatalf("free-running run did not converge: %+v", out)
	}
	spec.Transport = "bogus"
	if _, err := run.Execute(context.Background(), spec); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
