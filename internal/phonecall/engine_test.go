package phonecall

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// mixedWorkload drives rounds that exercise every engine path: pushes, pulls
// and exchanges, random and direct targets, dead targets and failures. It
// records everything a protocol could observe — the full delivery sequence of
// every node, in order — so runs can be compared bit for bit.
type mixedWorkload struct {
	net      *Network
	informed []bool
	log      [][]Message // per node: every delivered message, in order
}

func newMixedWorkload(t *testing.T, n, workers int, fail []int) *mixedWorkload {
	t.Helper()
	net, err := New(Config{N: n, Seed: 99, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	net.Fail(fail...)
	wl := &mixedWorkload{net: net, informed: make([]bool, n), log: make([][]Message, n)}
	wl.informed[0] = true
	return wl
}

func (wl *mixedWorkload) run(rounds int) {
	net := wl.net
	for r := 0; r < rounds; r++ {
		net.ExecRound(
			func(i int) Intent {
				switch i % 5 {
				case 0:
					return PushIntent(RandomTarget(), Message{Tag: 1, Rumor: wl.informed[i]})
				case 1:
					return Intent{Kind: Pull, Target: RandomTarget()}
				case 2:
					// Direct target, sometimes dead or unknown.
					return PushIntent(DirectTarget(net.ID((i+r)%net.N())), Message{Tag: 2, Value: uint64(i)})
				case 3:
					return ExchangeIntent(RandomTarget(), Message{Tag: 3, Rumor: wl.informed[i]})
				default:
					return Intent{}
				}
			},
			func(j int) (Message, bool) {
				if !wl.informed[j] {
					return Message{}, false
				}
				return Message{Tag: 4, Rumor: true, Value: uint64(j)}, true
			},
			func(i int, inbox []Message) {
				for _, m := range inbox {
					if m.Rumor {
						wl.informed[i] = true
					}
					// Copy out: inbox messages alias the engine arena.
					wl.log[i] = append(wl.log[i], m)
				}
			},
		)
	}
}

// TestShardedDeterminism asserts that metrics, informed sets and the exact
// per-node delivery order are identical for every worker count, including the
// failure model. n is above shardMinNodes so multi-worker runs really shard.
func TestShardedDeterminism(t *testing.T) {
	const n = 3 * shardMinNodes / 2
	fail := []int{5, 17, 100, n - 1}
	ref := newMixedWorkload(t, n, 1, fail)
	ref.run(12)
	refMetrics := ref.net.Metrics()

	for _, workers := range []int{2, 3, 8} {
		wl := newMixedWorkload(t, n, workers, fail)
		if wl.net.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", wl.net.Workers(), workers)
		}
		wl.run(12)
		if got := wl.net.Metrics(); !reflect.DeepEqual(refMetrics, got) {
			t.Errorf("workers=%d: metrics differ:\n  1: %+v\n  %d: %+v", workers, refMetrics, workers, got)
		}
		if !reflect.DeepEqual(ref.informed, wl.informed) {
			t.Errorf("workers=%d: informed sets differ", workers)
		}
		if !reflect.DeepEqual(ref.log, wl.log) {
			t.Errorf("workers=%d: delivery logs differ", workers)
		}
	}
}

// TestSmallNetworksRunSingleShard pins the shardMinNodes guard: tiny networks
// must not pay pool and barrier overhead.
func TestSmallNetworksRunSingleShard(t *testing.T) {
	net := newTestNet(t, 100, 1)
	if net.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1 for n=100", net.Workers())
	}
	big, err := New(Config{N: shardMinNodes, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if big.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4 for n=%d", big.Workers(), shardMinNodes)
	}
}

// roundCounter is a round-only observer: it counts the rounds it saw end.
type roundCounter struct{ ended int }

func (o *roundCounter) BeginRound(int, RoundInfo) {}
func (o *roundCounter) EndRound(RoundReport)      { o.ended++ }

// TestZeroSteadyStateAllocs locks in the allocation-free round engine: after
// warm-up, executing a round allocates nothing, sequential or sharded, in the
// Intent form, in the call form for each kind of call, with a sparse
// initiator set, and with a round-only observer installed (the run layer's
// tap is one).
func TestZeroSteadyStateAllocs(t *testing.T) {
	msg := Message{Tag: 1, Rumor: true}
	intent := func(i int) Intent {
		if i%3 == 1 {
			return Intent{Kind: Pull, Target: RandomTarget()}
		}
		return PushIntent(RandomTarget(), msg)
	}
	push := func(int) Call { return Call{Kind: Push, Target: RandomTarget()} }
	pull := func(int) Call { return Call{Kind: Pull, Target: RandomTarget()} }
	exchange := func(int) Call { return Call{Kind: Exchange, Target: RandomTarget()} }
	payload := func(int) Message { return msg }
	respond := func(j int) (Message, bool) { return Message{Tag: 2}, true }
	deliver := func(i int, inbox []Message) {}
	for _, tc := range []struct {
		name    string
		n       int
		workers int
	}{
		{"sequential", 1000, 1},
		{"sharded", shardMinNodes, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := New(Config{N: tc.n, Seed: 5, Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			obs := &roundCounter{}
			callers := NewNodeSet(tc.n)
			for i := 0; i < tc.n; i += 37 {
				callers.Put(i, true)
			}
			rounds := map[string]func(){
				"intents":  func() { net.ExecRound(intent, respond, deliver) },
				"push":     func() { net.ExecCalls(nil, push, payload, nil, deliver) },
				"pull":     func() { net.ExecCalls(nil, pull, nil, respond, deliver) },
				"exchange": func() { net.ExecCalls(nil, exchange, payload, respond, deliver) },
				"sparse":   func() { net.ExecCalls(callers, exchange, payload, respond, deliver) },
				"observed": func() {
					net.Observe(obs)
					net.ExecCalls(nil, exchange, payload, respond, deliver)
					net.Observe(nil)
				},
			}
			for _, form := range []string{"intents", "push", "pull", "exchange", "sparse", "observed"} {
				round := rounds[form]
				for i := 0; i < 5; i++ {
					round() // warm up: arena growth and pool start-up
				}
				if avg := testing.AllocsPerRun(20, round); avg != 0 {
					t.Errorf("%s: steady-state round allocates %.1f times, want 0", form, avg)
				}
			}
			if obs.ended == 0 {
				t.Error("observed: the observer saw no round end")
			}
		})
	}
}

// TestNetworkBytesPerNode is the engine's memory lock: New plus warm
// call-form push, pull and exchange rounds allocate a fixed number of bytes
// per node, read from the runtime's cumulative allocation counter. The push
// rounds are dense — every node sends, so the inbox arena reaches its first
// size of n messages — and the pull and exchange rounds are sparse, one
// caller in 16, as a protocol's pull rounds are, so the response list stays
// small. What is left is the engine's per-node state; an n-sized array of
// the 56-byte Message besides the arena (a payload staging array, a per-node
// response array) adds 56 B per node and fails the bound.
func TestNetworkBytesPerNode(t *testing.T) {
	const (
		n     = 1 << 16
		bound = 192 // bytes per node
	)
	msg := Message{Tag: 1, Rumor: true}
	sparse := func(k Kind) func(int) Call {
		return func(i int) Call {
			if i%16 != 0 {
				return Call{}
			}
			return Call{Kind: k, Target: RandomTarget()}
		}
	}
	push := func(int) Call { return Call{Kind: Push, Target: RandomTarget()} }
	pull, exchange := sparse(Pull), sparse(Exchange)
	payload := func(int) Message { return msg }
	respond := func(int) (Message, bool) { return Message{Tag: 2}, true }
	deliver := func(int, []Message) {}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net, err := New(Config{N: n, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		net.ExecCalls(nil, push, payload, nil, deliver)
		net.ExecCalls(nil, pull, nil, respond, deliver)
		net.ExecCalls(nil, exchange, payload, respond, deliver)
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("New and 9 call-form rounds: %.1f B per node", perNode)
	if perNode > bound {
		t.Errorf("New and 9 call-form rounds allocate %.1f B per node, want at most %d", perNode, bound)
	}
}

// TestShardSpansAreWholeBlocks pins the shard layout the touched maps rely
// on: every non-empty span starts on a 64-node block, the spans tile [0, n)
// in order, and a size just past a block boundary leaves a one-node shard
// followed by empty ones.
func TestShardSpansAreWholeBlocks(t *testing.T) {
	net, err := New(Config{N: 4097, Seed: 1, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if net.Workers() != 64 {
		t.Fatalf("Workers() = %d, want 64", net.Workers())
	}
	next, oneNode, empty := 0, 0, 0
	for w, sp := range net.spans {
		lo, hi := sp[0], sp[1]
		if lo != next || hi < lo {
			t.Fatalf("shard %d spans [%d, %d), want it to start at %d", w, lo, hi, next)
		}
		if hi > lo && lo%64 != 0 {
			t.Fatalf("shard %d starts at %d, not on a block boundary", w, lo)
		}
		if kLo, kHi := blockSpan(lo, hi); (hi == lo) != (kLo == kHi) {
			t.Fatalf("shard %d [%d, %d) covers blocks [%d, %d)", w, lo, hi, kLo, kHi)
		}
		switch hi - lo {
		case 0:
			empty++
		case 1:
			oneNode++
		}
		next = hi
	}
	if next != net.n || oneNode != 1 || empty == 0 {
		t.Fatalf("spans end at %d with %d one-node and %d empty shards, want %d, 1, >0", next, oneNode, empty, net.n)
	}
}

// TestFailedTargetsNotChargedComms pins the Δ accounting fix: contacting a
// failed node is a dropped call and must not count as a communication of the
// dead target (it previously inflated MaxCommsPerRound under the Section 8
// failure model).
func TestFailedTargetsNotChargedComms(t *testing.T) {
	net := newTestNet(t, 10, 3)
	net.Fail(4)
	dead := net.ID(4)
	net.ExecRound(
		func(i int) Intent { return PushIntent(DirectTarget(dead), Message{Tag: 1}) },
		nil, nil,
	)
	if m := net.Metrics(); m.MaxCommsPerRound != 1 {
		t.Fatalf("MaxCommsPerRound = %d, want 1 (dead target must not be charged)", m.MaxCommsPerRound)
	}
	// A live target keeps being charged for its fan-in.
	net2 := newTestNet(t, 10, 3)
	alive := net2.ID(4)
	net2.ExecRound(
		func(i int) Intent {
			if i == 4 {
				return Intent{}
			}
			return PushIntent(DirectTarget(alive), Message{Tag: 1})
		},
		nil, nil,
	)
	if m := net2.Metrics(); m.MaxCommsPerRound != 9 {
		t.Fatalf("MaxCommsPerRound = %d, want 9 for the live hot spot", m.MaxCommsPerRound)
	}
}

// TestInboxOrderMatchesInitiatorOrder pins the arena ordering contract: a
// node's inbox lists pushes in initiator-index order, with the node's own
// pull response at its initiator position.
func TestInboxOrderMatchesInitiatorOrder(t *testing.T) {
	net := newTestNet(t, 8, 11)
	dst := net.ID(3)
	var got []uint64
	net.ExecRound(
		func(i int) Intent {
			switch i {
			case 0, 1, 6, 7:
				return PushIntent(DirectTarget(dst), Message{Tag: 1, Value: uint64(i)})
			case 3:
				return Intent{Kind: Pull, Target: DirectTarget(net.ID(5))}
			default:
				return Intent{}
			}
		},
		func(j int) (Message, bool) { return Message{Tag: 2, Value: 100 + uint64(j)}, true },
		func(i int, inbox []Message) {
			if i != 3 {
				return
			}
			for _, m := range inbox {
				got = append(got, m.Value)
			}
		},
	)
	// Pushes from 0 and 1, then node 3's own pull response (initiator
	// position 3), then pushes from 6 and 7.
	want := []uint64{0, 1, 105, 6, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inbox order = %v, want %v", got, want)
	}
}

// TestResolveRandomMatchesStatelessHash pins resolveRandom's contract: the
// prefix-cached hash must stay bit-identical to the documented stateless
// rng.BoundedUint64(n, seed, 0xc0ffee, round, initiator, attempt) key
// sequence. The determinism tests cannot catch a drift here (it would shift
// every worker count uniformly), but it would silently break seeded
// reproducibility of all recorded results.
func TestResolveRandomMatchesStatelessHash(t *testing.T) {
	net := newTestNet(t, 257, 21)
	for _, round := range []int{0, 1, 7} {
		net.round = round
		net.refreshRoundMix()
		for initiator := 0; initiator < net.n; initiator += 13 {
			got := net.resolveRandom(initiator)
			want := -1
			for attempt := uint64(0); ; attempt++ {
				j := int(rng.BoundedUint64(uint64(net.n), net.cfg.Seed, 0xc0ffee, uint64(round), uint64(initiator), attempt))
				if j != initiator {
					want = j
					break
				}
			}
			if got != want {
				t.Fatalf("round=%d initiator=%d: resolveRandom = %d, BoundedUint64 = %d", round, initiator, got, want)
			}
		}
	}
}

func TestIDTable(t *testing.T) {
	tab := newIDTable(1000)
	for i := 1; i <= 1000; i++ {
		if !tab.put(NodeID(i*7), i) {
			t.Fatalf("put(%d) reported a present key", i*7)
		}
	}
	if tab.put(NodeID(7), 5) {
		t.Fatal("put of a present key reported success")
	}
	for i := 1; i <= 1000; i++ {
		got, ok := tab.get(NodeID(i * 7))
		if !ok || got != i {
			t.Fatalf("get(%d) = %d, %v", i*7, got, ok)
		}
	}
	if _, ok := tab.get(NodeID(13)); ok {
		t.Fatal("absent key reported present")
	}
	if _, ok := tab.get(NoNode); ok {
		t.Fatal("NoNode must never be present")
	}
}

// TestIDsFollowTheSequentialDraw locks the slot-order ID index to the ID
// assignment's definition: node i's ID is the i-th draw of the seed's ID
// stream, a draw equal to an earlier ID retried, and IndexOf inverts ID.
func TestIDsFollowTheSequentialDraw(t *testing.T) {
	for _, n := range []int{2, 63, 4096, 100000} {
		for seed := uint64(1); seed <= 3; seed++ {
			net, err := New(Config{N: n, Seed: seed, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(rng.Mix(seed, 0x1d5))
			seen := make(map[NodeID]bool, n)
			for i := 0; i < n; i++ {
				id := NodeID(src.Uint64()>>1) + 1
				for seen[id] {
					id = NodeID(src.Uint64()>>1) + 1
				}
				seen[id] = true
				if net.ID(i) != id {
					t.Fatalf("n=%d seed=%d: ID(%d) = %d, the sequential draw gives %d", n, seed, i, net.ID(i), id)
				}
				if back, ok := net.IndexOf(id); !ok || back != i {
					t.Fatalf("n=%d seed=%d: IndexOf(ID(%d)) = %d, %v", n, seed, i, back, ok)
				}
			}
		}
	}
}

// TestDuplicateIDTakesTheSequentialDraw feeds the bulk index two equal IDs:
// it reports them, and the network falls back to the draw-and-retry
// assignment, which yields the same directory as a network built without
// a collision.
func TestDuplicateIDTakesTheSequentialDraw(t *testing.T) {
	if newIDTable(3).putAll([]NodeID{5, 9, 5}, make([]int32, 3)) {
		t.Fatal("putAll accepted a duplicate ID")
	}
	const n = 1000
	want, err := New(Config{N: n, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{N: n, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	net.ids[700] = net.ids[300]
	clear(net.index.keys)
	net.indexIDs()
	for i := 0; i < n; i++ {
		if net.ID(i) != want.ID(i) {
			t.Fatalf("ID(%d) = %d after the fallback, want %d", i, net.ID(i), want.ID(i))
		}
		if back, ok := net.IndexOf(net.ID(i)); !ok || back != i {
			t.Fatalf("IndexOf(ID(%d)) = %d, %v after the fallback", i, back, ok)
		}
	}
}

// BenchmarkExecCallsSparse is a round at n = 10⁶ on 2 workers in which 1 %
// of the nodes push to a random node: "set" passes them as the initiator
// set, "nil-set" evaluates every node and the others return None. "dense"
// is the round in which every node pushes, for scale.
func BenchmarkExecCallsSparse(b *testing.B) {
	const n = 1_000_000
	net, err := New(Config{N: n, Seed: 1, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	callers := NewNodeSet(n)
	for i := 0; i < n; i++ {
		if rng.Mix(7, uint64(i))%100 == 0 {
			callers.Put(i, true)
		}
	}
	push := func(int) Call { return Call{Kind: Push, Target: RandomTarget()} }
	sparse := func(i int) Call {
		if !callers.Has(i) {
			return Call{}
		}
		return push(i)
	}
	msg := Message{Tag: 1, Rumor: true}
	payload := func(int) Message { return msg }
	deliver := func(int, []Message) {}
	for _, bc := range []struct {
		name    string
		callers NodeSet
		call    func(int) Call
	}{
		{"set", callers, push},
		{"nil-set", nil, sparse},
		{"dense", nil, push},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net.ExecCalls(bc.callers, bc.call, payload, nil, deliver)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ExecCalls(bc.callers, bc.call, payload, nil, deliver)
			}
		})
	}
}
