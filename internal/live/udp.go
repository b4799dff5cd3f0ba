package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// maxUDPFrame bounds one frame to a single loopback datagram. Frames above
// it (a protocol pushing thousands of IDs in one message, a bitmap summary
// of a wide window) are dropped and counted as send failures of their
// sender, mirroring what a real datagram network would do to them.
const maxUDPFrame = 60 * 1024

// maxUDPNodes caps the mesh size: every node owns one socket, and a mesh
// near the default file-descriptor limit helps nobody.
const maxUDPNodes = 512

// udpArenaChunk sizes the read loop's scratch arena. One chunk serves many
// received frames (frames are small relative to the chunk), so the per-
// receive allocation cost is amortized to near zero.
const udpArenaChunk = 64 * 1024

// UDPTransport exchanges wire frames over per-node UDP sockets on the
// loopback interface. It is the "real wire" transport: frames are serialized
// through the same codec as the channel mesh but cross the kernel's network
// stack, so delivery is asynchronous and — under socket-buffer pressure —
// lossy. Free-running mode only (Synchronous returns false); the gossip
// protocols tolerate both properties by design. Destinations are indexes
// into the transport's own bind table, complete by construction.
type UDPTransport struct {
	n         int
	conns     []*net.UDPConn
	addrs     []*net.UDPAddr
	boxes     []Mailbox
	sendFails []atomic.Int64 // per-sender send failures
	failTotal atomic.Int64
	closed    atomic.Bool
	mu        sync.RWMutex // guards Send against Close pulling sockets away
	wg        sync.WaitGroup
}

// NewUDPTransport binds n loopback sockets (ephemeral ports) and starts one
// reader goroutine per node.
func NewUDPTransport(n int) (*UDPTransport, error) {
	if err := validateN(n); err != nil {
		return nil, err
	}
	if n > maxUDPNodes {
		return nil, fmt.Errorf("live: UDP mesh capped at %d nodes (got %d); use the channel transport for larger runs", maxUDPNodes, n)
	}
	tr := &UDPTransport{
		n:         n,
		conns:     make([]*net.UDPConn, n),
		addrs:     make([]*net.UDPAddr, n),
		boxes:     newMailboxes(n),
		sendFails: make([]atomic.Int64, n),
	}
	for i := 0; i < n; i++ {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("live: bind node %d: %w", i, err)
		}
		tr.conns[i] = conn
		tr.addrs[i] = conn.LocalAddr().(*net.UDPAddr)
	}
	for i := 0; i < n; i++ {
		tr.wg.Add(1)
		go tr.read(i)
	}
	return tr, nil
}

// read pumps node i's socket into its mailbox until the socket closes. Each
// received frame is copied out of a shared arena chunk rather than freshly
// allocated: ReadFromUDPAddrPort keeps the kernel round trip allocation-free
// (no *net.UDPAddr per packet) and the arena amortizes the frame copies, so
// the steady-state receive path performs ~zero allocations per datagram
// (BenchmarkUDPReceive locks this in).
func (tr *UDPTransport) read(i int) {
	defer tr.wg.Done()
	buf := make([]byte, maxUDPFrame+1)
	var arena []byte
	for {
		k, _, err := tr.conns[i].ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		if k > maxUDPFrame {
			continue // cannot be one of ours; Send never emits above the bound
		}
		if len(arena) < k {
			arena = make([]byte, udpArenaChunk)
		}
		frame := arena[:k:k]
		arena = arena[k:]
		copy(frame, buf[:k])
		tr.boxes[i].Put(frame)
	}
}

// N implements Transport.
func (tr *UDPTransport) N() int { return tr.n }

// Mailbox implements Transport.
func (tr *UDPTransport) Mailbox(i int) *Mailbox { return &tr.boxes[i] }

// Synchronous implements Transport: datagrams are in flight after Send
// returns, so UDP cannot back lock-step barriers.
func (tr *UDPTransport) Synchronous() bool { return false }

// SendFailures returns the total number of frames the transport could not
// hand to the OS across all senders: frames over one datagram and frames the
// kernel refused (WriteToUDP errors). A nonzero count under normal operation
// points at oversize frames, socket-buffer pressure or teardown races — the
// loss is real and no longer silent.
func (tr *UDPTransport) SendFailures() int64 { return tr.failTotal.Load() }

// NodeSendFailures returns sender i's send-failure count.
func (tr *UDPTransport) NodeSendFailures(i int) int64 {
	if i < 0 || i >= tr.n {
		return 0
	}
	return tr.sendFails[i].Load()
}

// Send implements Transport: one frame, one datagram. Oversize frames and
// write errors drop the frame, exactly like the wire would — but they are
// counted per sender, not silently discarded. The read lock keeps Close from
// pulling the socket away mid-write: a Send racing Close either completes
// against an open socket or observes closed and returns.
func (tr *UDPTransport) Send(from, to int, frame []byte) {
	if from < 0 || from >= tr.n || to < 0 || to >= tr.n {
		return
	}
	if len(frame) > maxUDPFrame {
		tr.countFailure(from)
		return
	}
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	if tr.closed.Load() {
		return
	}
	if _, err := tr.conns[from].WriteToUDP(frame, tr.addrs[to]); err != nil {
		tr.countFailure(from)
	}
}

// countFailure charges one dropped frame to sender from.
func (tr *UDPTransport) countFailure(from int) {
	tr.sendFails[from].Add(1)
	tr.failTotal.Add(1)
}

// Close implements Transport: closes every socket and waits for the readers.
// The write lock excludes in-flight Sends, so no datagram is written to a
// socket that Close has already torn down.
func (tr *UDPTransport) Close() error {
	tr.mu.Lock()
	if tr.closed.Swap(true) {
		tr.mu.Unlock()
		return nil
	}
	for _, conn := range tr.conns {
		if conn != nil {
			conn.Close()
		}
	}
	tr.mu.Unlock()
	tr.wg.Wait()
	return nil
}
