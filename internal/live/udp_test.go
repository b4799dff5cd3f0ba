package live

import (
	"context"
	"sync"
	"testing"

	"repro/internal/phonecall"
)

// TestUDPFreeRun runs the free-running push-pull workload over real UDP
// loopback sockets: the same frames, across the kernel's network stack.
// Loopback delivery is reliable enough in practice, and the protocol
// tolerates drops by design, so full convergence within a generous budget is
// a stable assertion.
func TestUDPFreeRun(t *testing.T) {
	tr, err := NewUDPTransport(32)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer tr.Close()
	fr, err := NewFreeRun(FreeRunConfig{N: 32, Seed: 9, Rounds: 400, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllInformed {
		t.Fatalf("UDP run did not converge: %+v", rep)
	}
}

// TestUDPTransportLimits pins the datagram-size drop, counted as a send
// failure of its sender, and the node cap.
func TestUDPTransportLimits(t *testing.T) {
	tr, err := NewUDPTransport(2)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer tr.Close()
	huge := phonecall.Message{IDs: make([]phonecall.NodeID, 10000)}
	tr.Send(0, 1, appendCallFrame(nil, 1, 0, true, false, &huge))
	if got := tr.SendFailures(); got != 1 {
		t.Errorf("oversize frame: SendFailures() = %d, want 1", got)
	}
	if got := tr.NodeSendFailures(0); got != 1 {
		t.Errorf("oversize frame: NodeSendFailures(0) = %d, want 1", got)
	}
	if _, err := NewUDPTransport(maxUDPNodes + 1); err == nil {
		t.Error("over-cap mesh accepted")
	}
}

// TestUDPSendFailureCounted forces a kernel-level write error (the sender's
// socket is closed underneath the transport) and checks the failure is
// counted instead of silently discarded.
func TestUDPSendFailureCounted(t *testing.T) {
	tr, err := NewUDPTransport(2)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer tr.Close()
	tr.conns[0].Close() // yank node 0's socket; the transport still thinks it is open
	frame := appendCallFrame(nil, 1, 0, false, true, nil)
	tr.Send(0, 1, frame)
	if got := tr.NodeSendFailures(0); got != 1 {
		t.Errorf("node 0 write failure not counted (got %d)", got)
	}
	if got := tr.SendFailures(); got != 1 {
		t.Errorf("total write failures = %d, want 1", got)
	}
	// The healthy sender is unaffected.
	tr.Send(1, 0, frame)
	if got := tr.NodeSendFailures(1); got != 0 {
		t.Errorf("healthy sender charged %d failures", got)
	}
	// Out-of-range queries are safe.
	if got := tr.NodeSendFailures(-1); got != 0 {
		t.Errorf("NodeSendFailures(-1) = %d", got)
	}
}

// TestUDPSendFailuresSurfacedInReport runs a free-running workload whose
// source node has a dead socket underneath the transport: every one of its
// kernel writes fails, and the report must surface the count (total and
// per-node) instead of letting real loss pass as silence.
func TestUDPSendFailuresSurfacedInReport(t *testing.T) {
	tr, err := NewUDPTransport(3)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer tr.Close()
	tr.conns[0].Close() // node 0 (the rumor source) loses its socket
	fr, err := NewFreeRun(FreeRunConfig{N: 3, Seed: 2, Rounds: 30, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SendFailures == 0 {
		t.Fatalf("dead socket produced no counted send failures: %+v", rep)
	}
	if rep.NodeSendFailures[0] != rep.SendFailures {
		t.Errorf("per-node breakdown %v does not attribute all %d failures to node 0",
			rep.NodeSendFailures, rep.SendFailures)
	}
}

// BenchmarkUDPReceive measures the read loop's steady state: one datagram
// sent, received and drained per iteration. The receive path copies each
// frame out of a shared arena chunk (no per-packet allocation) and reads via
// ReadFromUDPAddrPort (no per-packet *UDPAddr) — allocs/op stays well below 1
// because the only allocations left are the amortized arena chunks.
func BenchmarkUDPReceive(b *testing.B) {
	tr, err := NewUDPTransport(2)
	if err != nil {
		b.Skipf("udp unavailable: %v", err)
	}
	defer tr.Close()
	msg := phonecall.Message{Tag: 111, Value: 0xff, Bits: 256}
	frame := appendCallFrame(nil, 1, 0, true, true, &msg)
	var drain [][]byte
	box := tr.Mailbox(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, frame)
		for box.Len() == 0 {
			<-box.Notify()
		}
		drain = box.TryDrain(drain[:0])
	}
}

// TestUDPSendAfterClose pins the teardown contract: Sends racing or following
// Close neither panic nor write to a torn-down socket, and they are not
// counted as kernel write failures (the transport was closed, not failing).
func TestUDPSendAfterClose(t *testing.T) {
	tr, err := NewUDPTransport(4)
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	frame := appendCallFrame(nil, 1, 0, false, true, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				tr.Send(g, (g+1)%4, frame)
			}
		}(g)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	tr.Send(0, 1, frame) // after Close: must be a silent no-op
	if got := tr.SendFailures(); got != 0 {
		t.Errorf("close race charged %d write failures", got)
	}
	if err := tr.Close(); err != nil { // double Close stays idempotent
		t.Fatal(err)
	}
}
