package live

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/phonecall"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// newConformancePair builds two identically seeded networks: one on the
// built-in sharded engine, one running its rounds on the lock-step live
// runtime over a zero-delay channel mesh.
func newConformancePair(t *testing.T, n int, seed uint64, workers int) (*phonecall.Network, *phonecall.Network, *LockStep) {
	t.Helper()
	engineNet, err := phonecall.New(phonecall.Config{N: n, Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	liveNet, err := phonecall.New(phonecall.Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLockStep(liveNet, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	return engineNet, liveNet, ls
}

// TestLockStepMatchesEngine is the acceptance gate of the live runtime: the
// closed algorithms — driven unchanged through the RoundExecutor seam — must
// produce bit-identical traces (rounds, messages, bits, Δ, per-phase
// breakdowns, informed counts) on the goroutine-per-node runtime and on the
// sharded engine, at n = 64 and n = 1000.
func TestLockStepMatchesEngine(t *testing.T) {
	algos := map[string]func(net *phonecall.Network) (trace.Result, error){
		"push": func(net *phonecall.Network) (trace.Result, error) {
			return baseline.Uniform(net, []int{0}, scenario.AlgoPush)
		},
		"pull": func(net *phonecall.Network) (trace.Result, error) {
			return baseline.Uniform(net, []int{0}, scenario.AlgoPull)
		},
		"push-pull": func(net *phonecall.Network) (trace.Result, error) {
			return baseline.Uniform(net, []int{0}, scenario.AlgoPushPull)
		},
		"cluster2": func(net *phonecall.Network) (trace.Result, error) {
			return core.Cluster2(net, []int{0})
		},
		"clusterpushpull": func(net *phonecall.Network) (trace.Result, error) {
			return core.ClusterPushPull(net, []int{0}, 64)
		},
	}
	for _, n := range []int{64, 1000} {
		for name, run := range algos {
			t.Run(name, func(t *testing.T) {
				engineNet, liveNet, ls := newConformancePair(t, n, 7, 4)
				want, err := run(engineNet)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				got, err := run(liveNet)
				if err != nil {
					t.Fatalf("live: %v", err)
				}
				if err := ls.Err(); err != nil {
					t.Fatalf("runtime: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("n=%d %s traces diverge:\n engine: %+v\n live:   %+v", n, name, want, got)
				}
				if !reflect.DeepEqual(engineNet.Metrics(), liveNet.Metrics()) {
					t.Fatalf("n=%d %s metrics diverge:\n engine: %+v\n live:   %+v",
						n, name, engineNet.Metrics(), liveNet.Metrics())
				}
			})
		}
	}
}

// TestLockStepMatchesOracle conformance-gates the live runtime through the
// differential harness: scripted randomized workloads — every call kind and
// target shape, exchanges without content (as pulls, and kept as exchanges
// that carry an empty payload), out-of-model kinds, scripted churn and
// per-call loss — must be bit-identical between the lock-step
// runtime and the naive reference oracle on every observable (round reports,
// response evaluations, per-node delivery traces, final metrics). Inbox
// poisoning stays on, so the runtime's copy-out contract is proved in the
// same run.
func TestLockStepMatchesOracle(t *testing.T) {
	scripts := []oracle.Script{
		{N: 48, Rounds: 10, NetSeed: 1, ProtoSeed: 2},
		{N: 300, Rounds: 8, NetSeed: 3, ProtoSeed: 4, LossRate: 0.3, LossSeed: 9},
		{N: 640, Rounds: 6, NetSeed: 5, ProtoSeed: 6, Churn: true, ChurnSeed: 11},
		{N: 97, Rounds: 12, NetSeed: 7, ProtoSeed: 8, LossRate: 0.9, LossSeed: 13, Churn: true, ChurnSeed: 17},
		{N: 200, Rounds: 8, NetSeed: 9, ProtoSeed: 10, Churn: true, ChurnSeed: 19, EmptyExchanges: true},
	}
	for _, sc := range scripts {
		liveNet, err := phonecall.New(phonecall.Config{N: sc.N, Seed: sc.NetSeed, PoisonInbox: true})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := NewLockStep(liveNet, nil)
		if err != nil {
			t.Fatal(err)
		}
		orc, err := oracle.New(phonecall.Config{N: sc.N, Seed: sc.NetSeed})
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Compare(liveNet, orc, sc); err != nil {
			t.Errorf("script %+v: %v", sc, err)
		}
		if err := ls.Err(); err != nil {
			t.Errorf("script %+v: runtime: %v", sc, err)
		}
		ls.Close()
	}
}

// TestLockStepCloseRestoresEngine checks that closing the runtime hands the
// network back to the built-in engine mid-execution.
func TestLockStepCloseRestoresEngine(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLockStep(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	push := func(int) phonecall.Call {
		return phonecall.Call{Kind: phonecall.Push, Target: phonecall.RandomTarget()}
	}
	payload := func(int) phonecall.Message { return phonecall.Message{Tag: 1} }
	liveRep := net.ExecCalls(nil, push, payload, nil, nil)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if net.Executor() != nil {
		t.Fatal("executor still installed after Close")
	}
	engineRep := net.ExecCalls(nil, push, payload, nil, nil)
	if engineRep.Messages != liveRep.Messages {
		t.Fatalf("engine round after Close sent %d messages, live round sent %d",
			engineRep.Messages, liveRep.Messages)
	}
	if ls.Close() != nil {
		t.Fatal("second Close not idempotent")
	}
}

// TestNewLockStepRejects pins the constructor's validation.
func TestNewLockStepRejects(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewChannelTransport(4, ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLockStep(net, small); err == nil {
		t.Error("size-mismatched transport accepted")
	}
	delayed, err := NewChannelTransport(8, ChannelConfig{Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLockStep(net, delayed); err == nil {
		t.Error("asynchronous transport accepted for lock-step")
	}
}

// TestLockStepRoundDoesNotAllocate pins the lock-step node's hot path: once
// warm, a round's three phases allocate nothing — the call and the response
// are encoded into frames the node drained, and the inbox sort does not box.
// One node runs the phases over a scripted transport, answering one puller and
// receiving its own pulled response, with freshly built inbound frames every
// round (the node may write into the ones it drained). The messages carry no
// IDs: parseFrame copies an ID block into a slice of its own, which allocates.
func TestLockStepRoundDoesNotAllocate(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: rigN, Seed: rigSeed})
	if err != nil {
		t.Fatal(err)
	}
	m := phonecall.Message{Value: 0b101, Bits: 300, Tag: phonecall.TagHoldings, Rumor: true}
	tr := &scriptTransport{n: rigN, box: &newMailboxes(1)[0], sent: make([]sentFrame, 0, 4)}
	delivered := 0
	ls := &LockStep{
		net: net,
		tr:  tr,
		n:   rigN,
		curCall: func(int) phonecall.Call {
			return phonecall.Call{Kind: phonecall.Exchange, Target: phonecall.RandomTarget()}
		},
		curPayload:  func(int) phonecall.Message { return m },
		curResponse: func(int) (phonecall.Message, bool) { return m, true },
		curDeliver:  func(_ int, inbox []phonecall.Message) { delivered += len(inbox) },
	}
	const rounds = 60 // the warm-up, AllocsPerRun's own warm-up and its 50 runs, with room
	inbound := make([][]byte, 0, 2*rounds)
	for k := 0; k < rounds; k++ {
		inbound = append(inbound, appendCallFrame(nil, rigRound, 3, true, true, &m), appendRespFrame(nil, rigRound, 4, &m))
	}
	nd := &lsNode{idx: rigSelf}
	round := func() {
		tr.sent = tr.sent[:0]
		nd.reset()
		ls.doCalls(nd, rigRound)
		tr.box.Put(inbound[0])
		ls.doProcess(nd, rigRound)
		tr.box.Put(inbound[1])
		ls.doDeliver(nd)
		inbound = inbound[2:]
	}
	round() // warm the node's slices and its spares
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("%.1f allocations per round, want 0 (the call and the response reuse drained frames)", avg)
	}
	if err := ls.Err(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2*52 {
		t.Errorf("delivered %d messages over 52 rounds, want 2 a round", delivered)
	}
	// The frames encoded into drained buffers are the frames encoded afresh.
	want := [][]byte{appendCallFrame(nil, rigRound, rigSelf, true, true, &m), appendRespFrame(nil, rigRound, rigSelf, &m)}
	if len(tr.sent) != 2 || tr.sent[1].to != 3 {
		t.Fatalf("last round sent %+v, want a call and a response to node 3", tr.sent)
	}
	for k, f := range tr.sent {
		if !bytes.Equal(f.raw, want[k]) {
			t.Errorf("frame %d: %x, want %x", k, f.raw, want[k])
		}
	}
}
