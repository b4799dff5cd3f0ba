package live

import (
	"sync/atomic"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// The node round, written once. The model (§2) has exactly one: initiate one
// call, answer every puller with one address-oblivious response, merge what
// arrived. FreeRun's nodes (bitmask and rumor-stream) and PeerNode all run
// node.step; what differs between them — how holdings are stored, encoded,
// charged and merged — sits behind the holdings seam below.

// holdings is the seam between the node round and a node's rumor state. One
// instance belongs to one node; only informed may be called off the node's
// own goroutine. Two implementations remain on purpose: bench/ and the
// Byzantine behavior library are typed on the 64-bit mask, and a rumorset row
// does not replace it at <= 64 rumors — on the simulator the same timeline
// ran 1.2–3.1x slower on the rumor set than on the mask (BENCH_TRAJECTORY.md,
// "mask stays at <= 64: measured") and still runs up to 1.6x slower on push
// ("mask vs set, again"), outside the 10 % that would have let the mask go. Which one a run gets follows from its input (a stream, or a
// rumor ID past the mask), never from an option.
type holdings interface {
	// beginRound and endRound bracket one node round: every other method but
	// informed is called between them, on the node's own goroutine. The
	// bracket never spans a wait (FreeRun.wait): only the round itself.
	beginRound()
	endRound()
	// snapshot reads the node's current holdings: the decision table's two
	// predicates (empty: holds nothing; complete: holds everything registered)
	// and the message that carries the holdings, whose Bits is the full charge
	// — overhead, encoding and one b-bit payload per rumor.
	snapshot() (m phonecall.Message, empty, complete bool)
	// callFrame and respFrame encode m — the latest snapshot's message,
	// possibly rewritten by a behavior — as a call or a pull response from
	// node src, appended to dst: one of the node's spares with room for the
	// frame, a header and bodyLen(m) bytes of payload. The transport takes
	// ownership of the frame.
	bodyLen(m phonecall.Message) int
	callFrame(dst []byte, round, src int, wantsPull bool, m phonecall.Message) []byte
	respFrame(dst []byte, round, src int, m phonecall.Message) []byte
	// merge folds the holdings a parsed frame carries into the node's own.
	// partial reports that the sender still lacks a rumor this node counts as
	// registered.
	merge(f frame) (partial bool)
	// informed reports whether the node holds everything registered. Safe
	// from any goroutine; the monitor's census calls it.
	informed() bool
}

// maskHoldings keeps a node's rumors as one atomic 64-bit mask: the owner
// merges into it, the monitor injects into, clears and reads it. reg is what
// counts as complete — the run's registered mask, which the monitor grows,
// or a PeerNode's fixed Expect. Storage and wire only: predicates, message and
// charge are phonecall.MaskView's, the view the scenario protocols read, so
// the holdings-directed behaviors (Liar, Stale) rewrite live traffic too.
type maskHoldings struct {
	held atomic.Uint64
	reg  *atomic.Uint64
	net  *phonecall.Network
}

// view reads the node's holdings among what is registered right now.
func (h *maskHoldings) view() phonecall.MaskView {
	reg := h.reg.Load()
	return phonecall.MaskView{Held: h.held.Load() & reg, Registered: reg}
}

func (h *maskHoldings) beginRound() {}
func (h *maskHoldings) endRound()   {}

func (h *maskHoldings) snapshot() (phonecall.Message, bool, bool) {
	v := h.view()
	return v.Message(h.net), v.Empty(), v.Complete()
}

func (h *maskHoldings) bodyLen(m phonecall.Message) int { return messageLen(&m) }

func (h *maskHoldings) callFrame(dst []byte, round, src int, wantsPull bool, m phonecall.Message) []byte {
	return appendCallFrame(dst, round, src, true, wantsPull, &m)
}

func (h *maskHoldings) respFrame(dst []byte, round, src int, m phonecall.Message) []byte {
	return appendRespFrame(dst, round, src, &m)
}

func (h *maskHoldings) merge(f frame) bool {
	// A payload-free or summary frame's msg is zero: no holdings message.
	gain, partial := h.view().Merge(f.msg)
	if gain != 0 {
		h.held.Or(gain)
	}
	return partial
}

func (h *maskHoldings) informed() bool { return h.view().Complete() }

// setHoldings keeps a node's rumors as its row of the shared rumor set (the
// node marks only its own row — the set's ownership contract) and gossips
// them as rumor-ID summaries. The node round runs under one read view of the
// set, taken in beginRound: the digest, every merge and the response see one
// table, and the round costs one read lock, not one per kernel call. own is
// the round's digest — what the node sends, and the ID bitmap a received
// summary is ANDed against so that only fresh IDs are looked up; stale says
// merges have marked rumors since it was taken.
type setHoldings struct {
	set          *rumorset.Set
	node         int
	net          *phonecall.Network
	view         rumorset.View
	own          rumorset.Summary
	summaryBytes int
	stale        bool
	msg          phonecall.Message
	empty, full  bool
}

func (h *setHoldings) beginRound() {
	h.view = h.set.View()
	h.stale = true
}

func (h *setHoldings) endRound() { h.view.Release() }

func (h *setHoldings) snapshot() (phonecall.Message, bool, bool) {
	if h.stale {
		var held int
		held, h.summaryBytes = h.view.Digest(&h.own, h.node)
		v := phonecall.SetView{Held: held, Active: h.view.Active(), SummaryBytes: h.summaryBytes}
		h.msg, h.empty, h.full, h.stale = v.Message(h.net), v.Empty(), v.Complete(), false
	}
	return h.msg, h.empty, h.full
}

// The stream path has no Byzantine seam (ValidateEvents rejects CorruptAt on
// wide runs), so the message is always the snapshot's own and the summary is
// encoded straight from the digest.
func (h *setHoldings) bodyLen(phonecall.Message) int { return h.summaryBytes }

func (h *setHoldings) callFrame(dst []byte, round, src int, wantsPull bool, _ phonecall.Message) []byte {
	return appendSummaryCallFrame(dst, round, src, wantsPull, &h.own)
}

func (h *setHoldings) respFrame(dst []byte, round, src int, _ phonecall.Message) []byte {
	return appendSummaryRespFrame(dst, round, src, &h.own)
}

// merge reports no linger evidence: a stream run ends at the monitor, never
// by lingering. Stale/expired IDs are skipped inside the kernel.
func (h *setHoldings) merge(f frame) bool {
	if f.hasSummary && h.view.MergeSummary(h.node, &h.own, &f.sum) > 0 {
		h.stale = true
	}
	return false
}

// informed is the monitor's census question, asked off the node's goroutine
// under a view of its own.
func (h *setHoldings) informed() bool {
	v := h.set.View()
	ok := v.HeldCount(h.node) == v.Active()
	v.Release()
	return ok
}

// frStats is one node's cumulative accounting, cache-line padded; written by
// the owner goroutine, read after the run joins.
type frStats struct {
	msgs     int64
	control  int64
	bits     int64
	maxComms int32
	_        [36]byte // pad to 64 bytes so adjacent nodes do not false-share
}

// node is one free-running gossip node: everything its round reads, resolved
// once by the adapter that owns it (FreeRun's node goroutine, PeerNode). It
// holds no per-round state besides the summary decode scratch and the spare
// frames its sends are encoded into.
type node struct {
	i    int
	algo scenario.Algorithm
	// net is the ID directory, contact hash, message sizing and live set;
	// its engine never runs. A round in flight when the node crashes drains
	// nothing.
	net *phonecall.Network
	tr  Transport
	h   holdings
	// behav, when non-nil, is where the monitor publishes the node's Byzantine
	// behavior; the step picks it up at its next round.
	behav *atomic.Pointer[frBehavior]
	st    *frStats
	// telMsgs/telBits are the pre-resolved telemetry counters (nil without a
	// registry): the send path pays a nil check and two sharded atomic adds.
	telMsgs, telBits *telemetry.Counter
	sum              rumorset.Summary
	spare            spares
}

// frBehavior boxes a node's installed Byzantine behavior so the monitor can
// publish it atomically while the node goroutine keeps running. A nil pointer
// (never installed) and a boxed nil behavior both mean honest.
type frBehavior struct {
	b phonecall.Behavior
}

// send charges one frame to the node's accounting — the only place traffic
// is charged — and hands it to the transport, which owns it from here on.
func (nd *node) send(to int, frame []byte, size int64, control bool) {
	if control {
		nd.st.control++
	} else {
		nd.st.msgs++
	}
	nd.st.bits += size
	if nd.telMsgs != nil {
		nd.telMsgs.AddShard(nd.i, 1)
		nd.telBits.AddShard(nd.i, size)
	}
	nd.tr.Send(nd.i, to, frame)
}

// step runs the node's local round r: initiate one call per the protocol
// (filtered through the node's installed behavior, if any), drain whatever
// arrived and merge it, then answer the round's pullers. drain is the
// caller's reusable frame list, returned empty for the next round: the
// drained frames have gone to the node's spares. needy is
// PeerNode's linger evidence: the drain showed a peer that still lacks rumors.
func (nd *node) step(r int, drain [][]byte) (_ [][]byte, needy bool) {
	i := nd.i
	comms := int32(0)
	var b phonecall.Behavior
	if nd.behav != nil {
		if cell := nd.behav.Load(); cell != nil {
			b = cell.b
		}
	}

	nd.h.beginRound()
	defer nd.h.endRound()

	// Read the round's call off the decision table the steppable protocols
	// use, then let the behavior rewrite it with its payload — the same seam
	// the barriered engines apply, so a timeline's adversaries act
	// identically here.
	m, empty, complete := nd.h.snapshot()
	c, withHoldings := nd.algo.Call(empty, complete)
	if !withHoldings {
		m = phonecall.Message{}
	}
	if b != nil {
		target := -1
		if c.Kind != phonecall.None {
			target = nd.net.Contact(r, i, c.Target)
		}
		c, m = b.RewriteCall(r, i, target, c, m)
	}
	// A call that resolves to nothing (a random peer the policy does not
	// admit) is not sent: the free-running engine charges only calls it
	// actually sends.
	if c.Kind != phonecall.None {
		if dst := nd.net.Contact(r, i, c.Target); dst >= 0 {
			if c.Kind == phonecall.Pull {
				nd.send(dst, nd.spare.callFrame(r, i, false, true, nil), int64(nd.net.ControlBits()), true)
			} else {
				buf := nd.spare.take(headerLen(r, i) + nd.h.bodyLen(m))
				frame := nd.h.callFrame(buf, r, i, c.Kind == phonecall.Exchange, m)
				nd.send(dst, frame, int64(nd.net.MessageSize(m)), false)
			}
			comms++
		}
	}

	if !nd.net.IsFailed(i) {
		drain = nd.tr.Mailbox(i).TryDrain(drain[:0])
	}
	// A round rarely has more pullers; beyond that append spills to the heap.
	// Four spilled in 7.5 % of live-stream-chan's node rounds: a node that
	// lags the frontier drains several rounds' calls at once.
	var few [8]int
	pulls := few[:0]
	for _, raw := range drain {
		f, err := parseFrameBuf(raw, nd.sum)
		if err != nil {
			continue
		}
		if f.hasSummary {
			nd.sum = f.sum
		}
		if nd.h.merge(f) {
			needy = true
		}
		if f.typ != frameCall {
			continue
		}
		comms++
		if f.wantsPull {
			pulls = append(pulls, f.src)
			if !f.hasPayload && !f.hasSummary {
				needy = true // a bare pull only comes from a node with nothing to offer
			}
		}
	}
	// Parsed: the frames are spares now, the responses' first.
	drain = nd.spare.give(drain)

	// Answer after the merge, once: the model's pull response is
	// address-oblivious — one message per round, handed to every puller — so
	// it is built from the freshest state (a puller that arrived in this
	// drain before the payload that informed the node still gets the merged
	// holdings) and filtered through the behavior once, like the engine's
	// response wrap.
	if len(pulls) > 0 {
		m, empty, _ := nd.h.snapshot()
		ok := nd.algo.Answers(empty)
		if b != nil {
			m, ok = b.RewriteResponse(r, i, m, ok)
		}
		if ok {
			size, frameLen := int64(nd.net.MessageSize(m)), headerLen(r, i)+nd.h.bodyLen(m)
			for _, src := range pulls {
				nd.send(src, nd.h.respFrame(nd.spare.take(frameLen), r, i, m), size, false)
			}
		}
	}
	if comms > nd.st.maxComms {
		nd.st.maxComms = comms
	}
	return drain, needy
}
