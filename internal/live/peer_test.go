package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/phonecall"
	"repro/internal/trace"
)

// TestPeerMeshConverges is the multi-process deployment in miniature: five
// independent peer stacks — each with its own socket, routing table and round
// loop, sharing nothing but the (n, seed) pair and one bootstrap address —
// must all converge a rumor injected at node 0. No static directory exists
// anywhere on this path: every gossip frame's destination is resolved through
// the sender's routing table.
func TestPeerMeshConverges(t *testing.T) {
	const (
		n    = 5
		seed = 42
	)
	net, err := phonecall.New(phonecall.Config{N: n, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := PeerIDs(net)

	trs := make([]*PeerTransport, n)
	for i := 0; i < n; i++ {
		trs[i], err = NewPeerTransport(PeerTransportConfig{
			N: n, Self: i, IDs: ids,
			Membership: membership.Config{
				Bind:       "127.0.0.1:0",
				RPCTimeout: 200 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("peer %d transport: %v", i, err)
		}
		defer trs[i].Close()
	}

	// Everyone except the seed bootstraps off the seed's announce address —
	// the only address any process is ever given.
	seedAddr := trs[0].Membership().Self().Addr
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i < n; i++ {
		if err := trs[i].Membership().Bootstrap(ctx, seedAddr); err != nil {
			t.Fatalf("peer %d bootstrap: %v", i, err)
		}
	}

	reports := make([]trace.Result, n)
	errs := make([]error, n)
	nodes := make([]*PeerNode, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pn, err := NewPeerNode(PeerConfig{
			N: n, Index: i, Seed: seed,
			Rounds:    600,
			Interval:  2 * time.Millisecond,
			Linger:    20,
			Inject:    map[bool]uint64{true: 1, false: 0}[i == 0],
			Expect:    1,
			Transport: trs[i],
		})
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		nodes[i] = pn
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = pn.Run(ctx)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Errorf("peer %d: %v (report %+v)", i, errs[i], reports[i])
			continue
		}
		if res := reports[i]; !res.AllInformed || res.CompletionRound == 0 || res.CompletionRound > res.Rounds {
			t.Errorf("peer %d did not converge: %+v", i, res)
		}
		// Everybody calls every round (push-pull), so everybody was charged.
		if res := reports[i]; res.Messages+res.ControlMessages == 0 || res.Bits == 0 || res.MaxCommsPerRound == 0 {
			t.Errorf("peer %d converged without traffic: %+v", i, res)
		}
		if held := nodes[i].Held(); held != 1 {
			t.Errorf("peer %d holds %#x, want 0x1", i, held)
		}
		// The routing table, not a shared directory, is what carried this:
		// every peer discovered at least the contacts it gossiped with.
		if trs[i].Membership().Table().Len() == 0 {
			t.Errorf("peer %d converged with an empty routing table", i)
		}
	}
}

// TestPeerTransportMissTriggersDiscovery pins the on-miss contract: a send to
// a peer the routing table does not know is dropped and counted, and the
// lookup it triggers makes a later send succeed once the target is
// discoverable.
func TestPeerTransportMissTriggersDiscovery(t *testing.T) {
	const n = 3
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := PeerIDs(net)
	mk := func(i int) *PeerTransport {
		tr, err := NewPeerTransport(PeerTransportConfig{
			N: n, Self: i, IDs: ids,
			Membership: membership.Config{RPCTimeout: 200 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	a, b, c := mk(0), mk(1), mk(2)

	// b and c know a (the seed); a does not know c yet, b does not know c.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seedAddr := a.Membership().Self().Addr
	if err := c.Membership().Bootstrap(ctx, seedAddr); err != nil {
		t.Fatal(err)
	}

	frame := appendCallFrame(nil, 1, 1, false, true, nil)
	// b has never spoken to anyone: its first send to c must miss, count, and
	// kick off discovery — which cannot succeed yet (b's table is empty).
	b.Send(1, 2, frame)
	if got := b.Misses(); got == 0 {
		t.Fatal("send into an empty routing table was not counted as a miss")
	}
	if err := b.Membership().Bootstrap(ctx, seedAddr); err != nil {
		t.Fatal(err)
	}
	// Bootstrap's self-lookup walked the seed's table; c is now resolvable and
	// the same send goes through to c's mailbox.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.Send(1, 2, append([]byte{}, frame...))
		time.Sleep(10 * time.Millisecond)
		if c.Mailbox(2).Len() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never reached peer c after discovery")
		}
	}
	// Self and remote mailbox addressing stay strict.
	if c.Mailbox(0) != nil || c.Mailbox(1) != nil {
		t.Fatal("remote indexes must have no local mailbox")
	}
}

// TestPeerTransportCountsOversize pins that a frame over one datagram is
// dropped and counted as a send failure of the local node, as on
// UDPTransport, before any routing-table lookup.
func TestPeerTransportCountsOversize(t *testing.T) {
	net, err := phonecall.New(phonecall.Config{N: 2, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewPeerTransport(PeerTransportConfig{N: 2, Self: 0, IDs: PeerIDs(net)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	huge := phonecall.Message{IDs: make([]phonecall.NodeID, 10000)}
	tr.Send(0, 1, appendCallFrame(nil, 1, 0, true, false, &huge))
	if got := tr.SendFailures(); got != 1 {
		t.Errorf("SendFailures() = %d, want 1", got)
	}
	if got := tr.NodeSendFailures(0); got != 1 {
		t.Errorf("NodeSendFailures(0) = %d, want 1", got)
	}
	if got := tr.Misses(); got != 0 {
		t.Errorf("oversize frame reached the routing table: %d misses", got)
	}
}
