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
	"repro/internal/phonecall"
	"repro/internal/trace"
)

// algoRun executes one algorithm on a fresh network with the given worker
// count and returns the full result and the network's metrics. A non-nil
// observer is installed before the first round.
func algoRun(t *testing.T, algo string, n, workers int, fail []int, obs phonecall.RoundObserver) (trace.Result, phonecall.Metrics) {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 42, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	net.Fail(fail...)
	if obs != nil {
		net.Observe(obs)
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

// nopObserver observes nothing. Installing it sends every ExecCalls round
// through the Intent-form seam fallback.
type nopObserver struct{}

func (nopObserver) BeginRound(int, phonecall.RoundInfo)          {}
func (nopObserver) ObserveIntent(int, phonecall.Intent)          {}
func (nopObserver) ObserveResponse(int, phonecall.Message, bool) {}
func (nopObserver) ObserveDeliver(int, []phonecall.Message)      {}
func (nopObserver) EndRound(phonecall.RoundReport)               {}

// TestCallFormMatchesIntentFallback runs the cluster algorithms, whose
// primitives use the call form, once on the engine's own call path and once
// with a no-op observer installed, which converts every call into an Intent
// and back. Results and metrics must be identical. Three single rounds then
// pin the edges of the call form's contract against the fallback and the
// Intent form (see formRounds).
func TestCallFormMatchesIntentFallback(t *testing.T) {
	const n, workers = 6000, 2
	fail := []int{3, 1000, n - 1}
	for _, algo := range []string{"cluster1", "cluster2", "cluster3", "clusterpushpull"} {
		t.Run(algo, func(t *testing.T) {
			res, metrics := algoRun(t, algo, n, workers, fail, nil)
			obsRes, obsMetrics := algoRun(t, algo, n, workers, fail, nopObserver{})
			if !reflect.DeepEqual(res, obsRes) {
				t.Errorf("results differ:\n  calls:    %+v\n  observed: %+v", res, obsRes)
			}
			if !reflect.DeepEqual(metrics, obsMetrics) {
				t.Errorf("metrics differ:\n  calls:    %+v\n  observed: %+v", metrics, obsMetrics)
			}
		})
	}
	for _, fc := range formRounds(n) {
		t.Run(fc.name, func(t *testing.T) {
			calls := fc.run(t, n, workers, "calls")
			if fc.check != nil {
				fc.check(t, calls)
			}
			for _, form := range []string{"observed", "intents"} {
				if got := fc.run(t, n, workers, form); !reflect.DeepEqual(calls, got) {
					t.Errorf("%s differs from the call form:\n  calls: %+v %+v\n  %s: %+v %+v",
						form, calls.report, calls.metrics, form, got.report, got.metrics)
				}
			}
		})
	}
}

// formCase is one round written in both forms: call and payload for
// ExecCalls, intent for ExecRound.
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

// run executes the case's round on a fresh network in one form: "calls"
// (the engine's own call path), "observed" (the call form through a no-op
// observer's Intent fallback) or "intents" (ExecRound).
func (fc formCase) run(t *testing.T, n, workers int, form string) formRun {
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
	switch form {
	case "intents":
		r.report = net.ExecRound(fc.intent, respond, deliver)
	case "observed":
		net.Observe(nopObserver{})
		fallthrough
	default:
		r.report = net.ExecCalls(fc.call, fc.payload, respond, deliver)
	}
	r.metrics, r.responses = net.Metrics(), responses.Load()
	return r
}

// formRounds are the three edges of the call form: a poisoned round in
// which most nodes are pulled, so the response list outgrows half the
// network; Intent-form exchanges without content, which are pulls — the
// call form's caller returns Pull for them; and pushes to failed and lost
// targets, whose payloads are asked for and charged all the same.
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
			intent: func(i int) phonecall.Intent {
				if mostlyPull(i) == phonecall.Exchange {
					return phonecall.ExchangeIntent(random, content(i))
				}
				return phonecall.PullIntent(random)
			},
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
			intent: func(i int) phonecall.Intent {
				if i%2 == 0 {
					return phonecall.PushIntent(phonecall.DirectTarget(ids[(i+1)%n]), content(i))
				}
				return phonecall.ExchangeIntent(random, content(i))
			},
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
