package live

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/membership"
	"repro/internal/phonecall"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// PeerTransportConfig configures a PeerTransport — the Transport of a
// multi-process deployment, where this process owns exactly one of the mesh's
// N nodes and every other index lives in some other process.
type PeerTransportConfig struct {
	// N is the logical mesh size; Self is this process's dense node index.
	N    int
	Self int
	// IDs maps every dense index onto its membership ID. All processes derive
	// the identical table from the shared (n, seed) pair — see PeerIDs — which
	// is what lets them agree on who index j is without any shared directory.
	IDs []membership.ID
	// Membership configures this process's discovery endpoint. Self and
	// OnGossip are owned by the transport (Self becomes IDs[Self]; OnGossip
	// feeds the gossip mailbox); everything else — bind and announce
	// addresses, k, alpha, RPC timeouts, telemetry — passes through.
	Membership membership.Config
}

// PeerTransport implements Transport for one node of a multi-process mesh.
// Gossip frames and membership RPCs share the endpoint's single UDP socket
// (demultiplexed by frame type byte); destinations are resolved through the
// routing table. A resolution miss drops the frame — gossip tolerates loss —
// and starts an asynchronous FIND_NODE lookup so a later round hits: the
// retry loop every gossip protocol already is doubles as the discovery
// driver.
type PeerTransport struct {
	n    int
	self int
	ids  []membership.ID
	nd   *membership.Node
	box  *Mailbox

	misses    atomic.Int64
	sendFails atomic.Int64
}

// PeerIDs derives the shared index→membership-ID table of an (n, seed) mesh.
// Every process of a deployment calls this with the same arguments and gets
// the same table; it is the only "global" knowledge a peer needs besides one
// bootstrap address.
func PeerIDs(net *phonecall.Network) []membership.ID {
	ids := make([]membership.ID, net.N())
	for i := range ids {
		ids[i] = membership.DeriveID(uint64(net.ID(i)))
	}
	return ids
}

// NewPeerTransport binds the membership endpoint and wires its socket's
// gossip side into this node's mailbox.
func NewPeerTransport(cfg PeerTransportConfig) (*PeerTransport, error) {
	if err := validateN(cfg.N); err != nil {
		return nil, err
	}
	if cfg.Self < 0 || cfg.Self >= cfg.N {
		return nil, fmt.Errorf("live: peer index %d out of range [0,%d)", cfg.Self, cfg.N)
	}
	if len(cfg.IDs) != cfg.N {
		return nil, fmt.Errorf("live: peer ID table has %d entries for %d nodes", len(cfg.IDs), cfg.N)
	}
	pt := &PeerTransport{
		n:    cfg.N,
		self: cfg.Self,
		ids:  cfg.IDs,
		box:  &newMailboxes(1)[0],
	}
	mcfg := cfg.Membership
	mcfg.Self = cfg.IDs[cfg.Self]
	mcfg.OnGossip = pt.box.Put
	nd, err := membership.New(mcfg)
	if err != nil {
		return nil, err
	}
	pt.nd = nd
	return pt, nil
}

// Membership returns the underlying discovery endpoint (for Bootstrap and
// diagnostics).
func (pt *PeerTransport) Membership() *membership.Node { return pt.nd }

// N implements Transport.
func (pt *PeerTransport) N() int { return pt.n }

// Mailbox implements Transport. Only this process's own node has a mailbox
// here; remote indexes return nil (their frames arrive in their processes).
func (pt *PeerTransport) Mailbox(i int) *Mailbox {
	if i != pt.self {
		return nil
	}
	return pt.box
}

// Synchronous implements Transport.
func (pt *PeerTransport) Synchronous() bool { return false }

// Send implements Transport. Only the local node may send (per-sender
// ownership holds trivially in one process); the destination's address comes
// from the routing table, and a miss both drops the frame and kicks off the
// background lookup that will make the next send hit. A frame over one
// datagram is dropped and counted as a send failure, like a write error.
func (pt *PeerTransport) Send(from, to int, frame []byte) {
	if from != pt.self || to < 0 || to >= pt.n || to == pt.self {
		return
	}
	if len(frame) > maxUDPFrame {
		pt.sendFails.Add(1)
		return
	}
	addr, ok := pt.nd.Resolve(pt.ids[to])
	if !ok {
		pt.misses.Add(1)
		pt.nd.LookupAsync(pt.ids[to])
		return
	}
	if err := pt.nd.SendRaw(addr, frame); err != nil {
		pt.sendFails.Add(1)
	}
}

// Misses returns the number of frames dropped on routing-table misses.
func (pt *PeerTransport) Misses() int64 { return pt.misses.Load() }

// SendFailures implements SendFailureCounter.
func (pt *PeerTransport) SendFailures() int64 { return pt.sendFails.Load() }

// NodeSendFailures implements SendFailureCounter.
func (pt *PeerTransport) NodeSendFailures(i int) int64 {
	if i != pt.self {
		return 0
	}
	return pt.sendFails.Load()
}

// Close implements Transport: tears down the shared socket (membership RPCs
// included).
func (pt *PeerTransport) Close() error { return pt.nd.Close() }

var (
	_ Transport          = (*PeerTransport)(nil)
	_ SendFailureCounter = (*PeerTransport)(nil)
)

// PeerConfig configures one free-running gossip node of a multi-process
// deployment.
type PeerConfig struct {
	// N is the mesh size, Index this process's node, Seed the shared seed.
	// (N, Seed) must agree across every process — they define the ID
	// directory and the per-round contact hash.
	N     int
	Index int
	Seed  uint64
	// Rounds is the local round budget (required).
	Rounds int
	// Interval paces the local rounds (default 20ms). There is no skew bound
	// across processes — real deployments have no frontier — so the pace is
	// wall-clock.
	Interval time.Duration
	// Linger keeps the node gossiping this many QUIET rounds after it
	// converged (default 10): a multi-process run has no global convergence
	// detector, so lingering stands in for "the monitor stops everyone". The
	// countdown is evidence-based — it restarts every round the node sees a
	// peer that still needs rumors (a bare pull request, or a holdings mask
	// missing part of Expect), and on a PeerTransport it does not start at
	// all while the routing table is empty (a converged seed waits for its
	// deployment to arrive rather than exiting into the void).
	Linger int
	// Algorithm is the gossip protocol (default push-pull).
	Algorithm scenario.Algorithm
	// PayloadBits is the per-rumor payload size b (default 256).
	PayloadBits int
	// Inject seeds this node's holdings (a rumor bitmask; usually nonzero on
	// exactly one process). Expect is the full rumor mask the deployment
	// spreads — the node counts itself converged when it holds all of Expect
	// (required nonzero; all processes must agree on it).
	Inject uint64
	Expect uint64
	// Transport carries the frames (required; usually a PeerTransport).
	Transport Transport
	// Telemetry, when non-nil, receives repro_messages_total and
	// repro_bits_total labeled engine="peer".
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// PeerNode drives one node's free-running gossip loop against a Transport
// whose other endpoints live in other processes. It runs the same node step
// as FreeRun's nodes, with nothing around it: no monitor, no frontier, no
// timeline — local rounds paced by wall clock, convergence judged against
// the Expect mask, which stands in for the registered set.
type PeerNode struct {
	cfg PeerConfig
	nd  node

	mask   maskHoldings
	expect atomic.Uint64
	stats  frStats
}

// NewPeerNode validates the configuration and prepares the node.
func NewPeerNode(cfg PeerConfig) (*PeerNode, error) {
	if err := validateN(cfg.N); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.N {
		return nil, fmt.Errorf("live: peer index %d out of range [0,%d)", cfg.Index, cfg.N)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("live: peer node needs a round budget >= 1 (got %d)", cfg.Rounds)
	}
	if cfg.Expect == 0 {
		return nil, fmt.Errorf("live: peer node needs a nonzero Expect rumor mask")
	}
	if cfg.Inject&^cfg.Expect != 0 {
		return nil, fmt.Errorf("live: injected rumors %#x outside the expected mask %#x", cfg.Inject, cfg.Expect)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("live: peer node needs a transport")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	if cfg.Linger <= 0 {
		cfg.Linger = 10
	}
	var err error
	if cfg.Algorithm, err = cfg.Algorithm.OrDefault(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	net, err := phonecall.New(phonecall.Config{N: cfg.N, Seed: cfg.Seed, PayloadBits: cfg.PayloadBits, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	pn := &PeerNode{cfg: cfg}
	pn.expect.Store(cfg.Expect)
	pn.mask.reg, pn.mask.net = &pn.expect, net
	pn.mask.held.Store(cfg.Inject)
	pn.nd = node{i: cfg.Index, algo: cfg.Algorithm, net: net, tr: cfg.Transport, h: &pn.mask, st: &pn.stats}
	if cfg.Telemetry != nil {
		by := []telemetry.Label{
			{Key: "algo", Value: string(cfg.Algorithm)},
			{Key: "engine", Value: "peer"},
		}
		pn.nd.telMsgs = cfg.Telemetry.Counter("repro_messages_total", by...)
		pn.nd.telBits = cfg.Telemetry.Counter("repro_bits_total", by...)
	}
	return pn, nil
}

// Held returns the node's current holdings mask.
func (pn *PeerNode) Held() uint64 { return pn.mask.held.Load() }

func (pn *PeerNode) logf(format string, args ...any) {
	if pn.cfg.Logf != nil {
		pn.cfg.Logf(format, args...)
	}
}

// Run executes local rounds until convergence-plus-linger, budget exhaustion
// or ctx cancellation, and returns this one node's result: Rounds are the
// local rounds it ran, CompletionRound the one at which it first held every
// Expect rumor (0 = never), Live, Informed and the traffic totals its own.
// The result is returned even on a non-converged or canceled run — callers
// print it before deciding the exit code.
func (pn *PeerNode) Run(ctx context.Context) (trace.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	informedAt := 0
	if pn.mask.informed() {
		informedAt = 1 // seeded with everything; lingering starts immediately
	}
	pt, isPeer := pn.cfg.Transport.(*PeerTransport)
	ticker := time.NewTicker(pn.cfg.Interval)
	defer ticker.Stop()

	var drain [][]byte
	r := 1
	quietFrom := 0 // first round of the current quiet streak (0 = not counting)
	var runErr error
loop:
	for ; r <= pn.cfg.Rounds; r++ {
		select {
		case <-ctx.Done():
			runErr = ctx.Err()
			break loop
		case <-ticker.C:
		}
		var needy bool
		drain, needy = pn.nd.step(r, drain)
		if informedAt == 0 && pn.mask.informed() {
			informedAt = r
			pn.logf("peer %d: informed at local round %d", pn.cfg.Index, r)
		}
		// The linger countdown runs only through quiet rounds: evidence of an
		// uninformed peer restarts it, and a still-empty routing table keeps
		// it from starting (nobody has arrived to be served yet).
		switch {
		case informedAt == 0 || needy || (isPeer && pt.Membership().Table().Len() == 0):
			quietFrom = 0
		case quietFrom == 0:
			quietFrom = r
		}
		if quietFrom > 0 && r-quietFrom+1 >= pn.cfg.Linger {
			r++
			break
		}
	}

	res := trace.Result{
		Algorithm:        string(pn.cfg.Algorithm),
		N:                pn.cfg.N,
		Seed:             pn.cfg.Seed,
		Rounds:           r - 1,
		Messages:         pn.stats.msgs,
		ControlMessages:  pn.stats.control,
		Bits:             pn.stats.bits,
		MessagesPerNode:  float64(pn.stats.msgs + pn.stats.control),
		MaxCommsPerRound: int(pn.stats.maxComms),
		CompletionRound:  informedAt,
		Live:             1,
		Wall:             time.Since(start),
	}
	if informedAt > 0 {
		res.Informed = 1 // the mask only grows: once informed, informed for good
	}
	res.AllInformed = trace.Converged(res.Live, res.Informed)
	if sf, ok := pn.cfg.Transport.(SendFailureCounter); ok {
		res.SendFailures = sf.SendFailures()
	}
	return res, runErr
}
