package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestFreeRunInformsAllUnderDrop is the free-running acceptance gate: 1000
// nodes on the channel mesh with 5% deterministic-seeded frame loss must all
// learn the rumor well within the budget, with the completion monitor
// detecting convergence.
func TestFreeRunInformsAllUnderDrop(t *testing.T) {
	tr, err := NewChannelTransport(1000, ChannelConfig{Drop: 0.05, DropSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fr, err := NewFreeRun(FreeRunConfig{
		N:         1000,
		Seed:      7,
		Rounds:    150,
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllInformed {
		t.Fatalf("not all live nodes informed: %+v", rep)
	}
	if rep.CompletionRound == 0 {
		t.Fatalf("completion monitor never fired: %+v", rep)
	}
	if rep.Drops == 0 {
		t.Fatalf("5%% loss injection dropped nothing: %+v", rep)
	}
	if rep.Messages == 0 || rep.Bits == 0 {
		t.Fatalf("no traffic accounted: %+v", rep)
	}
	if rep.N != 1000 || rep.Seed != 7 || rep.Algorithm != "push-pull" || rep.Rounds < rep.CompletionRound {
		t.Fatalf("result header broken: %+v", rep)
	}
}

// TestFreeRunChurnTimeline drives a crash wave and an uninformed rejoin
// through the frontier-triggered event path: the rejoined nodes must still
// converge (the joiners come back empty and have to re-learn the rumor).
func TestFreeRunChurnTimeline(t *testing.T) {
	crash := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fr, err := NewFreeRun(FreeRunConfig{
		N:      300,
		Seed:   11,
		Rounds: 200,
		Events: []scenario.Event{
			scenario.InjectRumor{At: 1, Node: 0, Rumor: 3},
			scenario.CrashAt{At: 4, Nodes: crash},
			scenario.JoinAt{At: 12, Nodes: crash},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live != 300 {
		t.Fatalf("rejoin did not restore the population: %+v", rep)
	}
	if !rep.AllInformed {
		t.Fatalf("churned run did not converge: %+v", rep)
	}
	if rep.UnfiredEvents != 0 {
		t.Fatalf("%d timeline events never fired: %+v", rep.UnfiredEvents, rep)
	}
}

// TestFreeRunReviveDiscardsDeadBacklog pins the crashed-mailbox contract: a
// node revived long after crashing must not drain the frames that piled up
// while it was dead — neither re-learning the rumor from stale traffic nor
// charging the backlog as one round's communications (which would corrupt Δ).
// With n=2, the lone live peer pushes to the dead node every round, so
// without the discard the revived node would instantly hold the rumor and
// report MaxComms on the order of the dead period.
func TestFreeRunReviveDiscardsDeadBacklog(t *testing.T) {
	fr, err := NewFreeRun(FreeRunConfig{
		N:         2,
		Seed:      1,
		Rounds:    120,
		Algorithm: scenario.AlgoPush,
		Events: []scenario.Event{
			scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
			scenario.CrashAt{At: 3, Nodes: []int{1}},
			scenario.JoinAt{At: 100, Nodes: []int{1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxCommsPerRound > 10 {
		t.Fatalf("revived node processed its dead-period backlog: Δ=%d (%+v)", rep.MaxCommsPerRound, rep)
	}
}

// TestFreeRunLossEvent checks that a Loss event retunes the channel mesh
// mid-run: its Apply reaches ChannelTransport.SetLoss through the
// free-running target.
func TestFreeRunLossEvent(t *testing.T) {
	tr, err := NewChannelTransport(200, ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	fr, err := NewFreeRun(FreeRunConfig{
		N:         200,
		Seed:      3,
		Rounds:    150,
		Transport: tr,
		Events: []scenario.Event{
			scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
			scenario.Loss{At: 2, Rate: 0.2, Seed: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drops == 0 {
		t.Fatalf("loss event did not reach the transport: %+v", rep)
	}
	if rep.IgnoredEvents != 0 {
		t.Fatalf("loss event reported as ignored: %+v", rep)
	}
	if !rep.AllInformed {
		t.Fatalf("run under 20%% loss did not converge: %+v", rep)
	}
}

// TestFreeRunPullOnly exercises the anti-entropy variant: only uninformed
// nodes initiate, so convergence relies on the pull/response path.
func TestFreeRunPullOnly(t *testing.T) {
	fr, err := NewFreeRun(FreeRunConfig{N: 200, Seed: 5, Rounds: 200, Algorithm: scenario.AlgoPull})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllInformed {
		t.Fatalf("pull-only run did not converge: %+v", rep)
	}
	if rep.ControlMessages == 0 {
		t.Fatalf("pull-only run charged no control messages: %+v", rep)
	}
}

// TestFreeRunLateEventsDoNotHang pins the termination contract: a timeline
// event scheduled past the round budget can never fire once every live node
// has exhausted its budget — the run must end and report it as unfired
// (the free-running analogue of the sim harness's "never fired" error),
// not block forever on the parked crashed node.
func TestFreeRunLateEventsDoNotHang(t *testing.T) {
	fr, err := NewFreeRun(FreeRunConfig{
		N:      16,
		Seed:   1,
		Rounds: 20,
		Events: []scenario.Event{
			scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
			scenario.CrashAt{At: 3, Nodes: []int{1}},
			scenario.JoinAt{At: 50, Nodes: []int{1}}, // past the budget
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		rep trace.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := fr.Run(context.Background())
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.rep.UnfiredEvents != 1 {
			t.Fatalf("want the past-budget JoinAt reported as 1 unfired event: %+v", o.rep)
		}
		if o.rep.Live != 15 {
			t.Fatalf("crashed node counted live: %+v", o.rep)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("free-running run with a past-budget event hung")
	}
}

// TestFreeRunRoundOneEventsPrecedeCommunication pins the timeline contract
// that events at round 1 apply before any communication at all: a node
// crashed at round 1 never sends a frame, and the source of a round-1 rumor
// holds it from its first round on, so push-pull never has it send a bare
// pull.
func TestFreeRunRoundOneEventsPrecedeCommunication(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		fr, err := NewFreeRun(FreeRunConfig{
			N:         256,
			Seed:      seed,
			Rounds:    60,
			Algorithm: scenario.AlgoPushPull,
			Events: []scenario.Event{
				scenario.CrashAt{At: 1, Nodes: []int{1, 2, 3}},
				scenario.InjectRumor{At: 1, Node: 0},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{1, 2, 3} {
			if st := fr.stats[i]; st.msgs+st.control != 0 {
				t.Errorf("seed %d: node %d crashed at round 1 sent %d frames", seed, i, st.msgs+st.control)
			}
		}
		if c := fr.stats[0].control; c != 0 {
			t.Errorf("seed %d: the round-1 source sent %d bare pulls", seed, c)
		}
	}
}

// slowSender delays every frame node 0 sends, so the others run far ahead of
// the frontier it holds back.
type slowSender struct{ *ChannelTransport }

func (s slowSender) Send(from, to int, frame []byte) {
	if from == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	s.ChannelTransport.Send(from, to, frame)
}

// TestFreeRunReviveAfterBudgetEnds revives a node whose goroutine already
// spent its budget: it restarts at a frontier below the budget that nobody
// will advance, so the run must end once every node has left its loop rather
// than wait for the frontier.
func TestFreeRunReviveAfterBudgetEnds(t *testing.T) {
	ct, err := NewChannelTransport(3, ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	fr, err := NewFreeRun(FreeRunConfig{
		N:         3,
		Seed:      1,
		Rounds:    6,
		MaxSkew:   6,
		Transport: slowSender{ct},
		Events: []scenario.Event{
			scenario.CrashAt{At: 4, Nodes: []int{1}},
			scenario.JoinAt{At: 4, Nodes: []int{1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := fr.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a node revived after its budget hung the run")
	}
}

// TestFreeRunTelemetryMatchesReport pins the send-path instrumentation: the
// live traffic counters a registry collects during a free-running run must
// agree exactly with the report's own accounting (every send site increments
// both), and the frontier stream must be monotone with MaxRound >= Frontier.
func TestFreeRunTelemetryMatchesReport(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var frontiers []FrontierInfo
	fr, err := NewFreeRun(FreeRunConfig{
		N:         200,
		Seed:      13,
		Rounds:    150,
		Telemetry: reg,
		OnFrontier: func(fi FrontierInfo) {
			mu.Lock()
			frontiers = append(frontiers, fi)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllInformed {
		t.Fatalf("run did not converge: %+v", rep)
	}
	samples := map[string]float64{}
	for _, s := range reg.Snapshot() {
		samples[s.ID()] = s.Value
	}
	msgs := samples[`repro_messages_total{algo="push-pull",engine="free-running"}`]
	if want := float64(rep.Messages + rep.ControlMessages); msgs != want {
		t.Errorf("repro_messages_total = %v, want %v (report: %+v)", msgs, want, rep)
	}
	bits := samples[`repro_bits_total{algo="push-pull",engine="free-running"}`]
	if want := float64(rep.Bits); bits != want {
		t.Errorf("repro_bits_total = %v, want %v", bits, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frontiers) == 0 {
		t.Fatal("OnFrontier never fired")
	}
	prev := 0
	for _, fi := range frontiers {
		if fi.Frontier <= prev {
			t.Fatalf("frontier stream not strictly increasing: %+v", frontiers)
		}
		prev = fi.Frontier
		if fi.MaxRound < fi.Frontier {
			t.Fatalf("MaxRound %d below frontier %d", fi.MaxRound, fi.Frontier)
		}
		if fi.Live <= 0 || fi.Informed < 0 || fi.Informed > fi.Live {
			t.Fatalf("implausible frontier populations: %+v", fi)
		}
	}
	last := frontiers[len(frontiers)-1]
	if last.Live != rep.Live || last.Informed > rep.Informed {
		t.Errorf("final frontier %+v disagrees with report informed=%d live=%d",
			last, rep.Informed, rep.Live)
	}
}

// TestFreeRunValidation pins the constructor error paths.
func TestFreeRunValidation(t *testing.T) {
	if _, err := NewFreeRun(FreeRunConfig{N: 1, Rounds: 10}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewFreeRun(FreeRunConfig{N: 10, Rounds: 0}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewFreeRun(FreeRunConfig{N: 10, Rounds: 5, Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	small, err := NewChannelTransport(4, ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFreeRun(FreeRunConfig{N: 10, Rounds: 5, Transport: small}); err == nil {
		t.Error("size-mismatched transport accepted")
	}
}

// TestFreeRunAllocatesPerRun locks what a whole free-running run allocates:
// a push-pull broadcast on the channel mesh, from NewFreeRun to Run's
// return. The mailboxes, drain lists and first spares are carved from
// run-sized slabs, so what is left per node is traffic (fresh frames, queue
// spills) and the node goroutine's own start-up, not set-up grown per node.
func TestFreeRunAllocatesPerRun(t *testing.T) {
	const n = 1024
	run := func() {
		fr, err := NewFreeRun(FreeRunConfig{N: n, Seed: 5, Rounds: 60})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fr.Run(context.Background())
		if err != nil || !rep.AllInformed {
			t.Fatalf("run did not converge: %v %+v", err, rep)
		}
	}
	if raceEnabled {
		run() // the shared slabs under real parallelism; the count is the detector's
		t.Skip("the race detector's own allocations move the count")
	}
	// 4.3–4.4 on a 2-vCPU VM (18.8 before the slabs). AllocsPerRun runs the
	// nodes on one P, which keeps the count steady from run to run.
	const bound = 6.5
	if perNode := testing.AllocsPerRun(10, run) / n; perNode > bound {
		t.Errorf("%.2f allocations per node per run, want <= %.1f", perNode, bound)
	}
}
