package phonecall_test

// External test package: exercises the sharded engine through the paper's
// full algorithms (which phonecall itself cannot import) and asserts that
// every observable quantity is byte-identical for any worker count.

import (
	"fmt"
	"reflect"
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
// and back. Results and metrics must be identical.
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
}
