package phonecall_test

// External test package: exercises the sharded engine through the paper's
// full algorithms (which phonecall itself cannot import) and asserts that
// every observable quantity is byte-identical for any worker count.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/phonecall"
	"repro/internal/trace"
)

// algoRun executes one algorithm on a fresh network with the given worker
// count and returns the full result and the network's metrics.
func algoRun(t *testing.T, algo string, n, workers int, fail []int) (trace.Result, phonecall.Metrics) {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 42, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	net.Fail(fail...)
	var res trace.Result
	switch algo {
	case "cluster1":
		res, err = core.Cluster1(net, []int{0})
	case "cluster2":
		res, err = core.Cluster2(net, []int{0})
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
// Workers ∈ {1, 2, 8} and requires byte-identical results and metrics. The
// network size is above the engine's sharding threshold so the multi-worker
// runs really execute on concurrent shards (also exercised under -race in CI).
func TestAlgorithmsDeterministicAcrossWorkers(t *testing.T) {
	const n = 6000
	fail := []int{3, 1000, 5999}
	for _, algo := range []string{"cluster1", "cluster2", "clusterpushpull"} {
		t.Run(algo, func(t *testing.T) {
			refRes, refMetrics := algoRun(t, algo, n, 1, fail)
			if refRes.Informed == 0 {
				t.Fatalf("reference run informed nobody: %+v", refRes)
			}
			for _, workers := range []int{2, 8} {
				res, metrics := algoRun(t, algo, n, workers, fail)
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
