package live

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/phonecall"
)

// LockStep runs a phonecall.Network's rounds as goroutine-per-node message
// passing over a synchronous transport, through the Network's RoundExecutor
// seam. Each round is three barrier-separated phases:
//
//	calls    every live node in the round's initiator set evaluates its
//	         call on its own goroutine, asks for the payload of a Push or
//	         Exchange, resolves its target (Network.Contact: random contacts
//	         through the model's stateless hash, direct addresses through
//	         the shared read-only ID directory), draws its loss (CallLost)
//	         and sends one call frame;
//	         it charges everything the engine charges on the initiator side.
//	process  every node drains its mailbox: dead nodes discard (a crashed
//	         process receives nothing — the live-participant rule falls out
//	         of the runtime instead of being simulated), live nodes charge
//	         one communication per arriving call, collect pushed payloads,
//	         and answer pulls by evaluating responseOf once and sending the
//	         single address-oblivious response frame to every puller.
//	deliver  every node drains the response frames, orders its inbox by
//	         initiator index (its own pulled response at its own position —
//	         the engine's documented order), and invokes deliver.
//
// The coordinator (the algorithm driver's goroutine, inside ExecCalls) merges
// the per-node stats into a RoundDelta, so metrics, trace phases and round
// reports are bit-identical to the sharded engine's. That equivalence is the
// conformance gate: the lock-step runtime is diffed against the
// internal/oracle reference with the PR 3 harness.
type LockStep struct {
	net *phonecall.Network
	tr  Transport
	n   int
	own bool // runtime owns (and closes) the transport

	curSet      phonecall.NodeSet
	curCall     func(i int) phonecall.Call
	curPayload  func(i int) phonecall.Message
	curResponse func(i int) (phonecall.Message, bool)
	curDeliver  func(i int, inbox []phonecall.Message)

	cmd []chan lsCmd
	ack chan lsStats
	wg  *sync.WaitGroup

	errMu  sync.Mutex
	errVal error

	closed bool
}

// Lock-step phases.
const (
	phaseCalls uint8 = iota + 1
	phaseProcess
	phaseDeliver
	phaseStop
)

// lsCmd is one phase of work handed to a node goroutine. Like the engine's
// passReq, it carries the runtime pointer with every request so the node
// goroutines themselves never retain it: an abandoned Network (and with it
// the LockStep) becomes collectible, and a runtime cleanup closes the
// command channels to release the goroutines.
type lsCmd struct {
	ls    *LockStep
	phase uint8
	round int
}

// lsStats is one node's per-round accounting, mirroring the engine's
// workerStats.
type lsStats struct {
	msgs    int64
	control int64
	bits    int64
	comms   int32
}

// lsNode is the state owned by one node goroutine.
type lsNode struct {
	idx      int
	inbox    []lsEntry // this round's collected inbox, keyed by initiator index
	pullers  []int     // initiators whose pulls reached this node
	heldResp []frame   // the round's parsed response frames, from either phase
	drain    [][]byte
	spare    spares // drained frames, reused for this node's sends
	delivery []phonecall.Message
	stats    lsStats
}

// lsEntry is one inbox slot before ordering.
type lsEntry struct {
	key int // initiator index; a pulled response uses the receiver's own index
	msg phonecall.Message
}

// NewLockStep starts n node goroutines over the transport and installs the
// runtime as net's round executor. A nil transport gets a private zero-delay
// channel mesh (loss injection comes from the Network's own SetLoss state, so
// scenario timelines keep working). Close the runtime to restore the built-in
// engine.
func NewLockStep(net *phonecall.Network, tr Transport) (*LockStep, error) {
	own := false
	if tr == nil {
		var err error
		if tr, err = NewChannelTransport(net.N(), ChannelConfig{}); err != nil {
			return nil, err
		}
		own = true
	}
	if tr.N() != net.N() {
		return nil, fmt.Errorf("live: transport has %d endpoints for %d nodes", tr.N(), net.N())
	}
	if !tr.Synchronous() {
		return nil, fmt.Errorf("live: lock-step needs a synchronous transport (zero-delay channel mesh)")
	}
	ls := &LockStep{
		net: net,
		tr:  tr,
		n:   net.N(),
		own: own,
		cmd: make([]chan lsCmd, net.N()),
		ack: make(chan lsStats, net.N()),
		wg:  new(sync.WaitGroup),
	}
	for i := range ls.cmd {
		ls.cmd[i] = make(chan lsCmd, 1)
	}
	for i := 0; i < ls.n; i++ {
		ls.wg.Add(1)
		go lockStepNode(i, ls.cmd[i], ls.ack, ls.wg)
	}
	// Nodes hold only their channels, never the runtime: once the LockStep
	// (and the Network referencing it) is dropped without Close, the cleanup
	// releases the goroutines.
	runtime.AddCleanup(ls, func(chs []chan lsCmd) {
		for _, ch := range chs {
			close(ch)
		}
	}, ls.cmd)
	net.SetExecutor(ls)
	return ls, nil
}

// Err returns the first node-side failure (a frame that failed to decode —
// impossible under the in-tree transports unless a transport corrupts data).
func (ls *LockStep) Err() error {
	ls.errMu.Lock()
	defer ls.errMu.Unlock()
	return ls.errVal
}

func (ls *LockStep) fail(err error) {
	ls.errMu.Lock()
	if ls.errVal == nil {
		ls.errVal = err
	}
	ls.errMu.Unlock()
}

// Close stops the node goroutines and uninstalls the executor; the Network
// falls back to the built-in engine. Idempotent.
func (ls *LockStep) Close() error {
	if ls.closed {
		return nil
	}
	ls.closed = true
	for i := range ls.cmd {
		ls.cmd[i] <- lsCmd{phase: phaseStop}
	}
	ls.wg.Wait()
	if ls.net.Executor() == phonecall.RoundExecutor(ls) {
		ls.net.SetExecutor(nil)
	}
	if ls.own {
		return ls.tr.Close()
	}
	return nil
}

// ExecNetworkRound implements phonecall.RoundExecutor: one barrier-phased
// round across all node goroutines.
func (ls *LockStep) ExecNetworkRound(
	net *phonecall.Network,
	round int,
	callers phonecall.NodeSet,
	callOf func(i int) phonecall.Call,
	payloadOf func(i int) phonecall.Message,
	responseOf func(i int) (phonecall.Message, bool),
	deliver func(i int, inbox []phonecall.Message),
) phonecall.RoundDelta {
	// Published to the node goroutines through the cmd channels'
	// happens-before edges, like the engine's pass channel.
	ls.curSet = callers
	ls.curCall = callOf
	ls.curPayload = payloadOf
	ls.curResponse = responseOf
	ls.curDeliver = deliver

	var delta phonecall.RoundDelta
	for _, phase := range []uint8{phaseCalls, phaseProcess, phaseDeliver} {
		for i := range ls.cmd {
			ls.cmd[i] <- lsCmd{ls: ls, phase: phase, round: round}
		}
		for range ls.cmd {
			st := <-ls.ack
			if phase == phaseDeliver {
				delta.Messages += st.msgs
				delta.Control += st.control
				delta.Bits += st.bits
				if int(st.comms) > delta.MaxComms {
					delta.MaxComms = int(st.comms)
				}
			}
		}
	}
	return delta
}

// lockStepNode is one node's event loop. Deliberately not a LockStep method:
// it receives the runtime with each command and drops it afterwards, so the
// goroutines never keep an abandoned runtime alive (see lsCmd).
func lockStepNode(i int, cmds <-chan lsCmd, ack chan<- lsStats, wg *sync.WaitGroup) {
	defer wg.Done()
	nd := &lsNode{idx: i}
	for cmd := range cmds {
		switch cmd.phase {
		case phaseCalls:
			nd.reset()
			cmd.ls.doCalls(nd, cmd.round)
		case phaseProcess:
			cmd.ls.doProcess(nd, cmd.round)
		case phaseDeliver:
			cmd.ls.doDeliver(nd)
		case phaseStop:
			return
		}
		ack <- nd.stats
	}
}

func (nd *lsNode) reset() {
	nd.inbox = nd.inbox[:0]
	nd.pullers = nd.pullers[:0]
	nd.heldResp = nd.heldResp[:0]
	nd.stats = lsStats{}
}

// doCalls evaluates node i's call when the node is in the round's initiator
// set, asks for its payload if it carries one,
// charges the initiator side and sends the call frame. It mirrors the
// engine's passCalls and passFill exactly (including the charges for
// unresolved, dead-target and lost calls, which the initiator cannot
// distinguish).
func (ls *LockStep) doCalls(nd *lsNode, round int) {
	i := nd.idx
	net := ls.net
	if net.IsFailed(i) || (ls.curSet != nil && !ls.curSet.Has(i)) {
		return
	}
	c := ls.curCall(i)
	if c.Kind == phonecall.None {
		return
	}
	// Resolve the target. The initiator cannot know whether the target is
	// alive — a call to a dead node is simply never received — but calls to
	// itself, to the NoNode sentinel, to an ID outside the directory or to
	// the random peer a policy does not admit go nowhere by the model's
	// rules; they are charged below and never sent.
	j := net.Contact(round, i, c.Target)
	nd.stats.comms++
	send := j >= 0 && !phonecall.CallLost(net.LossRate(), net.LossSeed(), round, i)

	switch c.Kind {
	case phonecall.Push, phonecall.Exchange:
		m := ls.curPayload(i)
		m.From = net.ID(i)
		nd.stats.msgs++
		nd.stats.bits += int64(net.MessageSize(m))
		if send {
			ls.tr.Send(i, j, nd.spare.callFrame(round, i, true, c.Kind == phonecall.Exchange, &m))
		}
	case phonecall.Pull:
		nd.stats.control++
		nd.stats.bits += int64(net.ControlBits())
		if send {
			ls.tr.Send(i, j, nd.spare.callFrame(round, i, false, true, nil))
		}
	default:
		// Out-of-model kinds transmit nothing but still occupy the target's
		// round (the engine charges the live target one communication), so a
		// bare contact frame crosses the wire.
		if send {
			ls.tr.Send(i, j, nd.spare.callFrame(round, i, false, false, nil))
		}
	}
}

// doProcess drains the calls that reached node i. Dead nodes discard
// everything unread. Live nodes charge the Δ communications, stage pushed
// payloads, and answer the round's pulls with one responseOf evaluation.
func (ls *LockStep) doProcess(nd *lsNode, round int) {
	i := nd.idx
	net := ls.net
	nd.drain = ls.tr.Mailbox(i).TryDrain(nd.drain[:0])
	if net.IsFailed(i) {
		nd.drain = nd.spare.give(nd.drain)
		return
	}
	for _, raw := range nd.drain {
		fr, err := parseFrame(raw)
		if err != nil {
			ls.fail(fmt.Errorf("node %d round %d: %w", i, round, err))
			continue
		}
		if fr.typ == frameResp {
			// A response can overtake this node's own drain when the
			// responder processed its mailbox first; it belongs to the
			// deliver phase.
			nd.heldResp = append(nd.heldResp, fr)
			continue
		}
		nd.stats.comms++
		if fr.hasPayload {
			m := fr.msg
			m.From = net.ID(fr.src)
			nd.inbox = append(nd.inbox, lsEntry{key: fr.src, msg: m})
		}
		if fr.wantsPull {
			nd.pullers = append(nd.pullers, fr.src)
		}
	}
	nd.drain = nd.spare.give(nd.drain) // parsed: the responses reuse them
	if len(nd.pullers) > 0 && ls.curResponse != nil {
		m, ok := ls.curResponse(i)
		if ok {
			m.From = net.ID(i)
			size := int64(net.MessageSize(m))
			k := int64(len(nd.pullers))
			nd.stats.msgs += k
			nd.stats.bits += size * k
			// One address-oblivious response, one frame per puller. The
			// encoded bytes are identical, but each Send hands ownership of
			// its slice to the transport (and its puller may reuse it), so
			// encode per puller.
			for _, p := range nd.pullers {
				ls.tr.Send(i, p, nd.spare.respFrame(round, i, &m))
			}
		}
	}
}

// doDeliver collects the response frames, orders the inbox and hands it to
// the delivery callback.
func (ls *LockStep) doDeliver(nd *lsNode) {
	i := nd.idx
	net := ls.net
	nd.drain = ls.tr.Mailbox(i).TryDrain(nd.drain[:0])
	if net.IsFailed(i) {
		nd.drain = nd.spare.give(nd.drain)
		return
	}
	for _, raw := range nd.drain {
		fr, err := parseFrame(raw)
		if err != nil || fr.typ != frameResp {
			ls.fail(fmt.Errorf("node %d: stray frame in deliver phase (err=%v type=%d)", i, err, fr.typ))
			continue
		}
		nd.heldResp = append(nd.heldResp, fr)
	}
	nd.drain = nd.spare.give(nd.drain)
	for _, fr := range nd.heldResp {
		m := fr.msg
		m.From = net.ID(fr.src)
		// The puller's own response sits at its own initiator position in
		// the engine's inbox order.
		nd.inbox = append(nd.inbox, lsEntry{key: i, msg: m})
	}
	if len(nd.inbox) == 0 {
		return
	}
	slices.SortFunc(nd.inbox, func(a, b lsEntry) int { return cmp.Compare(a.key, b.key) })
	if ls.curDeliver == nil {
		return
	}
	nd.delivery = nd.delivery[:0]
	for _, e := range nd.inbox {
		nd.delivery = append(nd.delivery, e.msg)
	}
	ls.curDeliver(i, nd.delivery)
	if net.PoisonInbox() {
		// Same copy-out contract as the engine arena: the slice is recycled
		// next round, and with poisoning on, a retaining callback reads
		// unmistakable poison instead of stale traffic.
		for k := range nd.delivery {
			nd.delivery[k] = phonecall.PoisonMessage
		}
	}
}
