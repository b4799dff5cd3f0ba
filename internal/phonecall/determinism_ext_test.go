package phonecall_test

// External test package: exercises the sharded engine through the paper's
// full algorithms (which phonecall itself cannot import) and asserts that
// every observable quantity is byte-identical for any worker count.

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/phonecall"
	"repro/internal/trace"
)

// algoRun executes one algorithm on a fresh network with the given worker
// count and returns the full result and the network's metrics. A non-nil
// install puts a seam in place before the first round.
func algoRun(t *testing.T, algo string, n, workers int, fail []int, install func(*testing.T, *phonecall.Network) func()) (trace.Result, phonecall.Metrics) {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 42, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	net.Fail(fail...)
	if install != nil {
		defer install(t, net)()
	}
	var res trace.Result
	switch algo {
	case "cluster1":
		res, err = core.Cluster1(net, []int{0})
	case "cluster2":
		res, err = core.Cluster2(net, []int{0})
	case "cluster3":
		_, res, err = core.Cluster3(net, 64)
	case "clusterpushpull":
		res, err = core.ClusterPushPull(net, []int{0}, 256)
	default:
		t.Fatalf("unknown algo %q", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, net.Metrics()
}

// TestAlgorithmsDeterministicAcrossWorkers runs the paper's algorithms for
// several worker counts and requires byte-identical results and metrics. The
// network sizes are above the engine's sharding threshold so the multi-worker
// runs really execute on concurrent shards (also exercised under -race in CI).
// n = 4097 sits one node past a 64-node block: with 64 workers the block-
// aligned spans leave a one-node shard followed by empty ones.
func TestAlgorithmsDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		n       int
		workers []int
	}{
		{6000, []int{2, 8}},
		{4097, []int{3, 64}},
	} {
		fail := []int{3, 1000, tc.n - 1}
		for _, algo := range []string{"cluster1", "cluster2", "clusterpushpull"} {
			name := algo
			if tc.n != 6000 {
				name = fmt.Sprintf("%s-n%d", algo, tc.n)
			}
			t.Run(name, func(t *testing.T) {
				refRes, refMetrics := algoRun(t, algo, tc.n, 1, fail, nil)
				if refRes.Informed == 0 {
					t.Fatalf("reference run informed nobody: %+v", refRes)
				}
				for _, workers := range tc.workers {
					res, metrics := algoRun(t, algo, tc.n, workers, fail, nil)
					if !reflect.DeepEqual(refRes, res) {
						t.Errorf("workers=%d: results differ:\n  1: %+v\n  %d: %+v", workers, refRes, workers, res)
					}
					if !reflect.DeepEqual(refMetrics, metrics) {
						t.Errorf("workers=%d: metrics differ", workers)
					}
				}
			})
		}
	}
}

// nopObserver observes nothing: installed, it wraps every callback of the
// round in an observer tap.
type nopObserver struct{}

func (nopObserver) BeginRound(int, phonecall.RoundInfo)          {}
func (nopObserver) ObserveCall(int, phonecall.Call)              {}
func (nopObserver) ObservePayload(int, phonecall.Message)        {}
func (nopObserver) ObserveResponse(int, phonecall.Message, bool) {}
func (nopObserver) ObserveDeliver(int, []phonecall.Message)      {}
func (nopObserver) EndRound(phonecall.RoundReport)               {}

// identity is a behavior that rewrites nothing: installed on a node, it
// routes the node's call, payload and response through the Byzantine seam.
type identity struct{}

func (identity) RewriteCall(_, _, _ int, c phonecall.Call, m phonecall.Message) (phonecall.Call, phonecall.Message) {
	return c, m
}
func (identity) RewriteResponse(_, _ int, m phonecall.Message, ok bool) (phonecall.Message, bool) {
	return m, ok
}

// seam installs one of the engine's seams on a fresh network of n nodes
// before its first round and returns what to release after the run.
type seam struct {
	name    string
	n       int
	install func(t *testing.T, net *phonecall.Network) func()
}

// seams are the three ways a round leaves the engine's bare path: a no-op
// observer, an identity behavior on every node, and the lock-step live
// runtime as the round executor. The first two run on a sharded engine. The
// lock-step runtime runs a goroutine per node, which the race detector
// charges ≈ 300 KB each, so it gets the network TestLockStepMatchesEngine
// uses.
var seams = []seam{
	{"observer", 6000, func(t *testing.T, net *phonecall.Network) func() {
		net.Observe(nopObserver{})
		return func() {}
	}},
	{"behavior", 6000, func(t *testing.T, net *phonecall.Network) func() {
		for i := 0; i < net.N(); i++ {
			net.SetBehavior(i, identity{})
		}
		return func() {}
	}},
	{"lockstep", 1000, func(t *testing.T, net *phonecall.Network) func() {
		ls, err := live.NewLockStep(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := ls.Err(); err != nil {
				t.Errorf("lock-step runtime: %v", err)
			}
			ls.Close()
		}
	}},
}

// TestSeamsMatchPlainRound runs the cluster algorithms and three single
// rounds at the edges of the call form's contract (see formRounds) once on
// the engine's bare path and once through each seam, at the seam's network
// size on 2 workers. A seam wraps the round's callbacks in the same call
// form, so results, metrics and inboxes must be identical. The one round
// with an Intent form also runs through ExecRound, whose contentless
// exchanges are the call form's pulls.
func TestSeamsMatchPlainRound(t *testing.T) {
	const workers = 2
	for _, algo := range []string{"cluster1", "cluster2", "cluster3", "clusterpushpull"} {
		t.Run(algo, func(t *testing.T) {
			for _, sm := range seams {
				t.Run(sm.name, func(t *testing.T) {
					fail := []int{3, sm.n / 6, sm.n - 1}
					res, metrics := algoRun(t, algo, sm.n, workers, fail, nil)
					seamRes, seamMetrics := algoRun(t, algo, sm.n, workers, fail, sm.install)
					if !reflect.DeepEqual(res, seamRes) {
						t.Errorf("results differ:\n  bare: %+v\n  %s: %+v", res, sm.name, seamRes)
					}
					if !reflect.DeepEqual(metrics, seamMetrics) {
						t.Errorf("metrics differ:\n  bare: %+v\n  %s: %+v", metrics, sm.name, seamMetrics)
					}
				})
			}
		})
	}
	for k, fc := range formRounds(seams[0].n) {
		t.Run(fc.name, func(t *testing.T) {
			for _, sm := range seams {
				t.Run(sm.name, func(t *testing.T) {
					fc := formRounds(sm.n)[k]
					bare := fc.run(t, sm.n, workers, nil)
					if fc.check != nil {
						fc.check(t, bare)
					}
					if got := fc.run(t, sm.n, workers, sm.install); !reflect.DeepEqual(bare, got) {
						t.Errorf("%s differs from the bare round:\n  bare: %+v %+v\n  %s: %+v %+v",
							sm.name, bare.report, bare.metrics, sm.name, got.report, got.metrics)
					}
				})
			}
			if fc.intent != nil {
				t.Run("intents", func(t *testing.T) {
					n := seams[0].n
					bare, got := fc.run(t, n, workers, nil), fc.runIntents(t, n, workers)
					if !reflect.DeepEqual(bare, got) {
						t.Errorf("ExecRound differs from the call form:\n  calls: %+v %+v\n  intents: %+v %+v",
							bare.report, bare.metrics, got.report, got.metrics)
					}
				})
			}
		})
	}
}

// formCase is one round in the call form, for ExecCalls, and optionally in
// the Intent form, for ExecRound.
type formCase struct {
	name    string
	poison  bool
	setup   func(net *phonecall.Network)
	call    func(i int) phonecall.Call
	payload func(i int) phonecall.Message
	respond func(j int) (phonecall.Message, bool)
	intent  func(i int) phonecall.Intent
	check   func(t *testing.T, r formRun)
}

// formRun is everything one execution of a formCase exposed.
type formRun struct {
	report    phonecall.RoundReport
	metrics   phonecall.Metrics
	inboxes   [][]phonecall.Message
	responses int64 // responseOf evaluations
}

// run executes the case's call-form round on a fresh network, through the
// seam that install puts in place (the bare path when install is nil).
func (fc formCase) run(t *testing.T, n, workers int, install func(*testing.T, *phonecall.Network) func()) formRun {
	t.Helper()
	return fc.exec(t, n, workers, func(net *phonecall.Network, respond func(int) (phonecall.Message, bool), deliver func(int, []phonecall.Message)) phonecall.RoundReport {
		if install != nil {
			defer install(t, net)()
		}
		return net.ExecCalls(fc.call, fc.payload, respond, deliver)
	})
}

// runIntents executes the case's Intent-form round through ExecRound.
func (fc formCase) runIntents(t *testing.T, n, workers int) formRun {
	t.Helper()
	return fc.exec(t, n, workers, func(net *phonecall.Network, respond func(int) (phonecall.Message, bool), deliver func(int, []phonecall.Message)) phonecall.RoundReport {
		return net.ExecRound(fc.intent, respond, deliver)
	})
}

// exec builds the case's network and records what round exposed.
func (fc formCase) exec(t *testing.T, n, workers int,
	round func(*phonecall.Network, func(int) (phonecall.Message, bool), func(int, []phonecall.Message)) phonecall.RoundReport,
) formRun {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 42, Workers: workers, PoisonInbox: fc.poison})
	if err != nil {
		t.Fatal(err)
	}
	if fc.setup != nil {
		fc.setup(net)
	}
	r := formRun{inboxes: make([][]phonecall.Message, n)}
	var responses atomic.Int64
	respond := func(j int) (phonecall.Message, bool) {
		responses.Add(1)
		return fc.respond(j)
	}
	if fc.respond == nil {
		respond = nil
	}
	deliver := func(i int, inbox []phonecall.Message) {
		r.inboxes[i] = append([]phonecall.Message(nil), inbox...) // copy out: poisoned on return
	}
	r.report = round(net, respond, deliver)
	r.metrics, r.responses = net.Metrics(), responses.Load()
	return r
}

// formRounds are the three edges of the call form: a poisoned round in
// which most nodes are pulled, so the response list outgrows half the
// network; exchanges without content, which the Intent form makes pulls —
// the call form's caller returns Pull for them; and pushes to failed and
// lost targets, whose payloads are asked for and charged all the same.
func formRounds(n int) []formCase {
	random := phonecall.RandomTarget()
	content := func(i int) phonecall.Message {
		return phonecall.Message{Tag: 3, Value: uint64(i), Bits: 1 + i%97}
	}
	answer := func(j int) (phonecall.Message, bool) {
		return phonecall.Message{Tag: 4, Value: uint64(j)}, j%5 != 0
	}
	// Every fourth node exchanges, the rest pull: every node calls.
	mostlyPull := func(i int) phonecall.Kind {
		if i%4 == 0 {
			return phonecall.Exchange
		}
		return phonecall.Pull
	}
	// Odd nodes exchange content; even nodes have nothing to push.
	oddExchange := func(i int) phonecall.Kind {
		if i%2 == 1 {
			return phonecall.Exchange
		}
		return phonecall.Pull
	}
	var ids []phonecall.NodeID // the directory, for direct targets
	return []formCase{
		{
			name:    "pulled-majority-poisoned",
			poison:  true,
			call:    func(i int) phonecall.Call { return phonecall.Call{Kind: mostlyPull(i), Target: random} },
			payload: content,
			respond: answer,
			check: func(t *testing.T, r formRun) {
				if r.responses <= int64(n/2) {
					t.Errorf("%d nodes pulled, want more than n/2 = %d", r.responses, n/2)
				}
			},
		},
		{
			name:    "empty-exchange-intent",
			call:    func(i int) phonecall.Call { return phonecall.Call{Kind: oddExchange(i), Target: random} },
			payload: content,
			respond: answer,
			intent: func(i int) phonecall.Intent {
				if oddExchange(i) == phonecall.Exchange {
					return phonecall.ExchangeIntent(random, content(i))
				}
				return phonecall.ExchangeIntent(random, phonecall.Message{})
			},
		},
		{
			// Even nodes push to their successor, a third of which failed;
			// odd nodes exchange with a random node; 30 % of calls are lost.
			name: "dead-and-lost-pushes",
			setup: func(net *phonecall.Network) {
				ids = make([]phonecall.NodeID, n)
				for i := range ids {
					ids[i] = net.ID(i)
				}
				for i := 1; i < n; i += 3 {
					net.Fail(i)
				}
				net.SetLoss(0.3, 7)
			},
			call: func(i int) phonecall.Call {
				if i%2 == 0 {
					return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(ids[(i+1)%n])}
				}
				return phonecall.Call{Kind: phonecall.Exchange, Target: random}
			},
			payload: content,
			check: func(t *testing.T, r formRun) {
				// No responder: the bits are the initiators' payloads alone,
				// every live node's, whether or not it arrived.
				want := int64(0)
				for i := 0; i < n; i++ {
					if i%3 != 1 {
						want += int64(content(i).Bits)
					}
				}
				if r.metrics.Bits != want {
					t.Errorf("charged %d bits, want %d: every sent payload, arrived or not", r.metrics.Bits, want)
				}
			},
		},
	}
}
