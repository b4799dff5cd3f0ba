package phonecall

import (
	"math/bits"
	"runtime"
	"sync"
)

// This file implements the sharded, allocation-free round engine behind
// Network.ExecCalls. See DESIGN.md ("Round engine") for
// the full architecture; in short, one synchronous round is executed as a
// fixed pipeline of passes over flat arrays, each pass sharded across a
// persistent worker pool:
//
//	passCalls    (by initiator) evaluate calls, resolve targets, count
//	passMerge    (by target)    merge per-worker counts, compute responses
//	                            into the shard's response list
//	                            (pull-free rounds: inbox cursors)
//	passSelf     (by node)      add pull responses to the receivers' counts,
//	                            inbox cursors
//	  — coordinator: per-shard base offsets into the shared message arena —
//	passFill     (by initiator) ask for and charge each payload, write it
//	                            and each received response into the arena
//	                            (touched initiators only)
//	passDeliver  (by target)    invoke the delivery callbacks
//
// A round pays per node only for what the node sends: the passes read the
// 24-byte Call, and the payload goes from its callback to its arena slot
// through a 64-message per-worker scratch, never a per-node staging array.
// Destinations cost only where something landed: every shard marks the
// destination cells it writes in a bitmap, and the destination passes (and
// the next round's reset) visit the union of the marked bits, not all n.
// Responses live in a dense per-shard list, so memory follows the round's
// traffic: besides the arena, the engine keeps no n-sized array of messages.
// Per-node inboxes are contiguous spans of a single []Message arena that is
// reused round after round; after warm-up a round performs no allocations.
// Every cross-shard quantity is either accumulated in per-worker shards that
// are merged behind a barrier or written at indexes owned by exactly one
// worker, so the engine is data-race free and — because random targets come
// from a stateless hash of (seed, round, initiator) and inbox slots are
// ordered by initiator index — produces bit-identical results for every
// worker count.

// shardMinNodes is the network size below which rounds always run on a single
// shard: below it the pass barriers cost more than the work they split.
const shardMinNodes = 4096

// shardMemBudget bounds the per-worker destination-shard state (12 bytes per
// (worker, node), plus a bit per node for the touched map). A round visits
// only the cells its traffic touched, but a dense round touches nearly all of
// them, so past this budget extra shards cost more memory bandwidth than
// their parallelism returns; the effective worker count is clamped to stay
// within it.
const shardMemBudget = 256 << 20

// denseReset is the fraction 1/denseReset of a shard's cells above which the
// shard resets its cells with one sequential clear instead of visiting the
// ones its last round touched.
const denseReset = 8

// op classifies a node's call for the round, after normalization.
type op uint8

const (
	opNone     op = iota
	opPush        // push with payload
	opPull        // pull: request + response
	opExchange    // exchange: payload push + response
)

// noTarget marks an unresolved or dead target in Network.tgt.
const noTarget int32 = -1

// noResponse marks, in Network.respIdx, a pulled node that gave no response.
const noResponse int32 = -1

// destCell accumulates, per (worker, destination node), what the worker's
// initiators did to that node. Once the node's inbox is laid out the msgs
// field is recycled as the worker's write cursor into the message arena,
// relative to the base of the destination's shard.
type destCell struct {
	msgs  int32 // messages destined to the node (then: arena write cursor)
	pulls int32 // pulls addressed to the node
	comms int32 // communications the node participates in (Δ accounting)
}

// workerStats is a per-worker metrics shard, merged once per round. Padded to
// a cache line so shards on adjacent indexes do not false-share.
type workerStats struct {
	messages   int64 // payload-carrying messages
	control    int64 // pull requests
	bits       int64
	inboxLen   int64 // messages landing in the worker's node range
	pullEvents int64 // live pulls initiated by the worker's node range
	maxComms   int32
	_          [20]byte
}

// passID names one engine pass for the worker pool.
type passID uint8

const (
	pCalls passID = iota + 1
	pMerge
	pSelf
	pFill
	pDeliver
)

// passReq is one unit of work handed to a pool worker.
type passReq struct {
	net *Network
	p   passID
}

// pool is the persistent worker pool. It deliberately does not reference the
// Network: workers receive it with every request and drop it afterwards, so
// an abandoned Network becomes collectible and its cleanup closes the pool.
type pool struct {
	ch []chan passReq // index 0 belongs to the caller goroutine, unused
	wg sync.WaitGroup
}

func newPool(workers int) *pool {
	pl := &pool{ch: make([]chan passReq, workers)}
	for w := 1; w < workers; w++ {
		ch := make(chan passReq, 1)
		pl.ch[w] = ch
		go func(w int, ch chan passReq) {
			for req := range ch {
				req.net.runPass(req.p, w)
				pl.wg.Done()
			}
		}(w, ch)
	}
	return pl
}

// close terminates the pool's goroutines. Invoked by the Network's runtime
// cleanup once the Network is unreachable.
func (pl *pool) close() {
	for _, ch := range pl.ch {
		if ch != nil {
			close(ch)
		}
	}
}

// initEngine sizes the engine state for n nodes and workers shards and, for
// multi-shard engines, starts the worker pool.
func (net *Network) initEngine(workers int) {
	n := net.n
	if workers < 1 {
		workers = 1
	}
	if n < shardMinNodes {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if cap := shardMemBudget / (12 * n); workers > cap {
		workers = max(cap, 1)
	}
	net.nw = workers

	// Spans are whole 64-node blocks, so a bitmap word belongs to one shard;
	// trailing shards may be short or empty.
	blocks := (n + 63) >> 6
	chunk := (blocks + workers - 1) / workers << 6
	net.chunkBlocks = chunk >> 6
	net.cells = make([][]destCell, workers)
	net.touched = make([][]uint64, workers)
	net.spans = make([][2]int, workers)
	for w := 0; w < workers; w++ {
		net.cells[w] = make([]destCell, n)
		net.touched[w] = make([]uint64, blocks)
		lo := min(w*chunk, n)
		net.spans[w] = [2]int{lo, min(lo+chunk, n)}
	}
	net.wstats = make([]workerStats, workers)
	net.resps = make([][]Message, workers)
	net.fillBuf = make([][64]Message, workers)
	net.rangeBase = make([]int32, workers)
	net.blockBase = make([]int32, blocks)

	net.roundMixRound = -1
	net.ops = make([]op, n)
	net.tgt = make([]int32, n)
	net.respIdx = make([]int32, n)
	net.inCount = make([]int32, n)
	net.inOff = make([]int32, n)

	if workers > 1 {
		net.pool = newPool(workers)
		runtime.AddCleanup(net, func(pl *pool) { pl.close() }, net.pool)
	}
}

// runParallel executes one pass on every shard and waits for the barrier.
// Shard 0 runs on the calling goroutine.
func (net *Network) runParallel(p passID) {
	if net.nw == 1 {
		net.runPass(p, 0)
		return
	}
	net.pool.wg.Add(net.nw - 1)
	for w := 1; w < net.nw; w++ {
		net.pool.ch[w] <- passReq{net: net, p: p}
	}
	net.runPass(p, 0)
	net.pool.wg.Wait()
}

func (net *Network) runPass(p passID, w int) {
	lo, hi := net.spans[w][0], net.spans[w][1]
	switch p {
	case pCalls:
		net.passCalls(w, lo, hi)
	case pMerge:
		net.passMerge(w, lo, hi)
	case pSelf:
		net.passSelf(w, lo, hi)
	case pFill:
		net.passFill(w, lo, hi)
	case pDeliver:
		net.passDeliver(w, lo, hi)
	}
}

// ExecCalls executes one synchronous round.
//
// callOf is invoked once per live node and returns the node's call.
// responseOf is invoked at most once per live node that is pulled from and
// returns the node's address-oblivious response (ok=false means the node
// does not respond this round). payloadOf is invoked exactly once per Push
// or Exchange call, whether or not the call reaches its target, after every
// responseOf of the round and before any deliver; it returns the call's
// payload (a nil payloadOf sends empty messages), which is charged when it
// is asked for. An Exchange always carries its payload — it is transmitted
// and charged even when empty — so a caller with nothing to push returns
// Pull. deliver is invoked once per live node that received at least one
// message, with the node's inbox; inbox slices alias the engine's reusable
// message arena and are only valid during the callback — callbacks that
// retain messages must copy them out.
//
// Any of the callbacks may be nil; a nil callOf is an empty round. The
// callbacks of a node may only touch that node's own state: the engine
// invokes them from concurrent shards when the network is configured with
// more than one worker.
//
// A round with a seam installed — a behavior (SetBehavior), an observer
// (Observe) or an external executor (SetExecutor) — wraps the callbacks in
// the same form, so its traffic, metrics and inboxes are those of the bare
// round with the seam's own effect added. Only the payload's moment may
// differ: a behavior asks for a corrupted node's with its call, which the
// rewrite needs, and so does the lock-step executor for every node.
func (net *Network) ExecCalls(
	callOf func(i int) Call,
	payloadOf func(i int) Message,
	responseOf func(i int) (Message, bool),
	deliver func(i int, inbox []Message),
) RoundReport {
	net.checkAbort()
	net.round++
	if net.roundHook != nil {
		// Scenario hook: may Fail, Revive, SetLoss or SetBehavior before this
		// round's calls are evaluated (coordinator goroutine, so those
		// mutations happen-before every pass).
		net.roundHook(net.round)
	}
	obs := net.observer
	if obs != nil {
		obs.BeginRound(net.round, RoundInfo{
			HasCall:     callOf != nil,
			HasResponse: responseOf != nil,
			HasDeliver:  deliver != nil,
		})
	}
	if callOf == nil {
		// No initiator means an empty round: nothing is sent, charged or
		// delivered.
		rep := RoundReport{Round: net.round}
		if obs != nil {
			obs.EndRound(rep)
		}
		return rep
	}
	if payloadOf == nil {
		payloadOf = emptyPayload
	}
	if net.corrupted > 0 {
		// Byzantine seam: behaviors rewrite outgoing traffic before the
		// observer taps it (verifiers check what is actually sent) and
		// before any executor delegation (the live lock-step runtime
		// inherits behaviors through the wrapped callbacks).
		callOf, payloadOf, responseOf = net.behaviorCallbacks(callOf, payloadOf, responseOf)
	}
	if obs != nil {
		callOf, payloadOf, responseOf, deliver = net.observedCallbacks(obs, callOf, payloadOf, responseOf, deliver)
	}
	if net.executor != nil {
		// An external executor (internal/live) runs the round; the Network
		// merges its delta exactly like the engine's own worker shards.
		rep := net.runExternal(callOf, payloadOf, responseOf, deliver)
		if obs != nil {
			obs.EndRound(rep)
		}
		return rep
	}

	net.curCall = callOf
	net.curPayload = payloadOf
	net.curResponse = responseOf
	net.curDeliver = deliver
	net.refreshRoundMix()
	if net.lossRate > 0 {
		net.refreshLossMix()
	}

	net.runParallel(pCalls)
	// passCalls has counted only payloads so far: responses come later.
	pulls, sends := int64(0), int64(0)
	for w := range net.wstats {
		pulls += net.wstats[w].pullEvents
		sends += net.wstats[w].messages
	}
	// Rounds without live pulls (all push traffic — the most common protocol
	// rounds) have no responses: the merge pass computes the final inbox
	// counts and cursors directly and the self-response pass is skipped.
	net.noPulls = pulls == 0
	net.runParallel(pMerge)
	if !net.noPulls {
		net.runParallel(pSelf)
	}

	// Coordinator step: per-shard base offsets into the arena, spread over
	// the shards' blocks for passFill, then size the arena.
	total := int64(0)
	for w := 0; w < net.nw; w++ {
		base := int32(total)
		net.rangeBase[w] = base
		total += net.wstats[w].inboxLen
		lo, hi := blockSpan(net.spans[w][0], net.spans[w][1])
		for b := lo; b < hi; b++ {
			net.blockBase[b] = base
		}
	}
	if int(total) > cap(net.slab) {
		// The first arena holds n messages (a round in which every node
		// receives one) and later ones double, up to the 2n bound on an arena:
		// rounds usually grow gradually, and sizing each new maximum exactly
		// would re-make the arena round after round.
		net.slab = make([]Message, max(int(total), min(max(2*cap(net.slab), net.n), 2*net.n)))
	}
	net.slab = net.slab[:total]

	if total > 0 || sends > 0 {
		// Payloads are asked for and charged even when none arrives.
		net.runParallel(pFill)
	}
	if deliver != nil && total > 0 {
		net.runParallel(pDeliver)
	}

	// Merge the per-worker metric shards.
	var msgs, control, bits int64
	maxComms := 0
	for w := range net.wstats {
		st := &net.wstats[w]
		msgs += st.messages
		control += st.control
		bits += st.bits
		if int(st.maxComms) > maxComms {
			maxComms = int(st.maxComms)
		}
		*st = workerStats{}
	}
	net.metrics.Messages += msgs
	net.metrics.ControlMessages += control
	net.metrics.Bits += bits
	if maxComms > net.metrics.MaxCommsPerRound {
		net.metrics.MaxCommsPerRound = maxComms
	}

	net.curCall, net.curPayload, net.curResponse, net.curDeliver = nil, nil, nil, nil

	rep := RoundReport{
		Round:    net.round,
		Messages: msgs + control,
		Bits:     bits,
		MaxComms: maxComms,
	}
	if obs != nil {
		obs.EndRound(rep)
	}
	return rep
}

func emptyPayload(int) Message { return Message{} }

// blockSpan returns the 64-node blocks [kLo, kHi) of the shard span [lo, hi).
// A non-empty span starts on a block boundary; an empty one (lo = hi = n)
// covers no block, even when n is not a multiple of 64.
func blockSpan(lo, hi int) (int, int) { return (lo + 63) >> 6, (hi + 63) >> 6 }

// touch marks node d's cell in a shard's touched map.
func touch(touched []uint64, d int) { touched[d>>6] |= 1 << (d & 63) }

// touchedUnion is the union of every shard's touched word k: the nodes of
// block k that some shard wrote this round.
func (net *Network) touchedUnion(k int) uint64 {
	u := uint64(0)
	for _, t := range net.touched {
		u |= t[k]
	}
	return u
}

// passCalls resets the cells the shard touched last round, evaluates the
// calls of the shard's initiators, resolves their targets and accounts
// everything the call alone determines: payload and control messages, the
// control bits and the per-destination message/pull/communication counts
// used by the later passes. A payload's bits are charged by passFill, which
// asks for it.
func (net *Network) passCalls(w, lo, hi int) {
	cells := net.cells[w]
	touched := net.touched[w]
	dirty := 0
	for _, word := range touched {
		dirty += bits.OnesCount64(word)
	}
	if dirty > len(cells)/denseReset {
		// Many cells are dirty: one sequential clear beats a bit walk.
		clear(cells)
		clear(touched)
	} else {
		for k, word := range touched {
			if word == 0 {
				continue
			}
			touched[k] = 0
			for ; word != 0; word &= word - 1 {
				cells[k<<6+bits.TrailingZeros64(word)] = destCell{}
			}
		}
	}
	st := &net.wstats[w]
	callOf := net.curCall
	sel := net.selector
	round := net.round

	for i := lo; i < hi; i++ {
		if net.failed[i] {
			net.ops[i] = opNone
			continue
		}
		c := callOf(i)
		if c.Kind == None {
			net.ops[i] = opNone
			continue
		}
		var j int
		var ok bool
		if c.Target.Random {
			if sel != nil {
				j, ok = sel.SelectPeer(round, i)
			} else {
				j, ok = net.resolveRandom(i), true
			}
		} else {
			j = net.Contact(round, i, c.Target)
			ok = j >= 0
		}
		cells[i].comms++
		touch(touched, i)
		// Δ accounting (the paper's MaxCommsPerRound): only live nodes
		// participate in a communication — a failed target drops the call, so
		// it is not charged (Section 8 failure model). A call lost in transit
		// (SetLoss) follows the same rule: the initiator attempted, the
		// target never participated.
		live := ok && !net.failed[j]
		if live && net.lossRate > 0 && net.dropCall(i) {
			live = false
		}
		if live {
			cells[j].comms++
			touch(touched, j)
			net.tgt[i] = int32(j)
		} else {
			net.tgt[i] = noTarget
		}
		var o op
		switch c.Kind {
		case Push:
			o = opPush
		case Pull:
			o = opPull
		case Exchange:
			o = opExchange
		default:
			// Out of the model: an attempted communication that transmits
			// nothing.
			net.ops[i] = opNone
			continue
		}
		net.ops[i] = o
		if o == opPull {
			st.control++
			st.bits += int64(net.controlSize())
		} else {
			st.messages++
			if live {
				cells[j].msgs++
			}
		}
		if o != opPush && live {
			cells[j].pulls++
			st.pullEvents++
		}
	}
}

// layOut places node d's inbox at the shard-relative offset run and turns
// every worker's count for d into its write cursor: worker w's messages follow
// those of workers < w, and each worker fills its span in ascending initiator
// order, so the concatenation is ordered exactly like the sequential engine's
// append order — by initiator index, with a puller's own response sitting at
// its initiator position. Cells without messages keep their zero count, so a
// cell no shard touched stays clean. It returns the offset past the inbox.
func (net *Network) layOut(d int, run int32) int32 {
	net.inOff[d] = run
	for _, cells := range net.cells {
		c := &cells[d]
		count, cur := c.msgs, run
		if count == 0 {
			cur = 0 // branch-free: a dense round's counts are 0 about a third of the time
		}
		c.msgs = cur
		run += count
	}
	return run
}

// passMerge merges the per-worker destination counts of the touched nodes in
// the shard's range, computes each pulled node's address-oblivious response
// (invoking responseOf exactly once per pulled node) and accounts the
// response fan-out. In pull-free rounds it also lays out the inboxes,
// replacing the skipped passSelf.
func (net *Network) passMerge(w, lo, hi int) {
	st := &net.wstats[w]
	respond := net.curResponse
	noPulls := net.noPulls
	maxComms := st.maxComms
	run := int32(0)
	resps := net.resps[w][:0]

	for k, kHi := blockSpan(lo, hi); k < kHi; k++ {
		for u := net.touchedUnion(k); u != 0; u &= u - 1 {
			d := k<<6 + bits.TrailingZeros64(u)
			var msgs, pulls, comms int32
			for _, cells := range net.cells {
				c := &cells[d]
				msgs += c.msgs
				pulls += c.pulls
				comms += c.comms
			}
			if comms > maxComms {
				maxComms = comms
			}
			net.inCount[d] = msgs
			if noPulls {
				run = net.layOut(d, run)
				continue
			}
			if pulls > 0 {
				// Only live nodes are pulled (passCalls drops dead targets),
				// so d may respond. The single response is handed to every
				// puller and each copy is charged, exactly as in the model.
				idx := noResponse
				if respond != nil {
					m, has := respond(d)
					if has {
						m.From = net.ids[d]
						size := int64(net.messageSize(&m))
						st.messages += int64(pulls)
						st.bits += size * int64(pulls)
						idx = int32(len(resps))
						if len(resps) == cap(resps) {
							// Double, where append would grow a long list by
							// a quarter: a list that grows over a run's
							// rounds then allocates twice its final size,
							// not five times.
							resps = append(make([]Message, 0, max(2*cap(resps), 256)), resps...)
						}
						resps = append(resps, m)
					}
				}
				net.respIdx[d] = idx
			}
		}
	}
	net.resps[w] = resps
	st.maxComms = maxComms
	if noPulls {
		st.inboxLen = int64(run)
	}
}

// passSelf adds each puller's incoming response to its own inbox count and
// lays out the shard's inboxes. It runs after the merge barrier because a
// puller's target — and hence the response index it depends on — can live
// in any shard. Every live initiator touched its own cell, so the walk over
// touched nodes meets every puller.
func (net *Network) passSelf(w, lo, hi int) {
	cells := net.cells[w]
	run := int32(0)
	for k, kHi := blockSpan(lo, hi); k < kHi; k++ {
		for u := net.touchedUnion(k); u != 0; u &= u - 1 {
			i := k<<6 + bits.TrailingZeros64(u)
			if o := net.ops[i]; o == opPull || o == opExchange {
				if t := net.tgt[i]; t != noTarget && net.respIdx[t] != noResponse {
					cells[i].msgs++
					net.inCount[i]++
				}
			}
			run = net.layOut(i, run)
		}
	}
	net.wstats[w].inboxLen = int64(run)
}

// passFill asks for every payload of the shard's initiators, charges it and
// writes it into the arena at its target's cursor, then copies each puller's
// received response to its own cursor. A cursor is relative to its
// destination's shard, whose base blockBase holds per 64-node block. Running
// after the merge barrier puts every payloadOf after every responseOf. Every
// live initiator marked its own cell in the shard's touched map, so the walk
// over the map's bits in the shard's range meets them all, in ascending
// order, and skips the silent stretches of a sparse round. A block's
// payloads are asked for first, into the worker's 64-message scratch, and
// placed after: the callbacks then read their nodes' state back to back
// instead of between the arena's random writes.
func (net *Network) passFill(w, lo, hi int) {
	cells := net.cells[w]
	touched := net.touched[w]
	own := net.rangeBase[w]
	st := &net.wstats[w]
	payloadOf := net.curPayload
	buf := &net.fillBuf[w]
	for k, kHi := blockSpan(lo, hi); k < kHi; k++ {
		u := touched[k]
		sent := 0
		for v := u; v != 0; v &= v - 1 {
			i := k<<6 + bits.TrailingZeros64(v)
			if o := net.ops[i]; o == opPush || o == opExchange {
				// Charged whether or not it arrives: a payload to a dead or
				// unresolved target, or lost in transit, was still sent.
				m := &buf[sent]
				*m = payloadOf(i)
				m.From = net.ids[i]
				st.bits += int64(net.messageSize(m))
				sent++
			}
		}
		sent = 0
		for v := u; v != 0; v &= v - 1 {
			i := k<<6 + bits.TrailingZeros64(v)
			o := net.ops[i]
			if o == opNone {
				continue
			}
			t := net.tgt[i]
			if o != opPull {
				if t != noTarget {
					c := &cells[t]
					net.slab[net.blockBase[t>>6]+c.msgs] = buf[sent]
					c.msgs++
				}
				sent++
			}
			if o != opPush && t != noTarget {
				if r := net.respIdx[t]; r != noResponse {
					c := &cells[i]
					net.slab[own+c.msgs] = net.resps[int(t>>6)/net.chunkBlocks][r]
					c.msgs++
				}
			}
		}
	}
}

// PoisonMessage is the value every inbox slot is overwritten with under
// Config.PoisonInbox, as soon as the slot's delivery callback returns. The
// field values are deliberately implausible (the zero From never names a
// node) so an illegally retained message is recognizable at the point of
// misuse rather than reading as plausible stale traffic.
var PoisonMessage = Message{
	From:  NoNode,
	Value: 0xdead_dead_dead_dead,
	Bits:  -1,
	Tag:   0xEF,
}

// passDeliver hands every non-empty inbox in the shard's range to the
// delivery callback; only touched nodes can have one.
func (net *Network) passDeliver(w, lo, hi int) {
	deliver := net.curDeliver
	poison := net.cfg.PoisonInbox
	base := net.rangeBase[w]
	for k, kHi := blockSpan(lo, hi); k < kHi; k++ {
		for u := net.touchedUnion(k); u != 0; u &= u - 1 {
			d := k<<6 + bits.TrailingZeros64(u)
			c := net.inCount[d]
			if c == 0 {
				continue
			}
			off := base + net.inOff[d]
			inbox := net.slab[off : off+c : off+c]
			deliver(d, inbox)
			if poison {
				// Enforce the copy-out contract: the span is dead the moment
				// the callback returns.
				for k := range inbox {
					inbox[k] = PoisonMessage
				}
			}
		}
	}
}
