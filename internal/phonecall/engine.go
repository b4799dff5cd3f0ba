package phonecall

import (
	"runtime"
	"sync"
)

// This file implements the sharded, allocation-free round engine behind
// Network.ExecRound. See DESIGN.md ("Round engine") for the full architecture;
// in short, one synchronous round is executed as a fixed pipeline of passes
// over flat arrays, each pass sharded across a persistent worker pool:
//
//	passIntents  (by initiator) evaluate intents, resolve targets, count
//	passMerge    (by target)    merge per-worker counts, compute responses
//	passSelf     (by node)      add pull responses to the receivers' counts
//	  — coordinator: prefix offsets into the shared message arena —
//	passCursor   (by target)    per-(worker,target) write cursors
//	passFill     (by initiator) copy messages into the arena
//	passDeliver  (by target)    invoke the delivery callbacks
//
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
// (worker, node)). Every round clears and merges all of it, so past this
// budget extra shards cost more memory bandwidth than their parallelism
// returns; the effective worker count is clamped to stay within it.
const shardMemBudget = 256 << 20

// op classifies a node's intent for the round, after normalization.
type op uint8

const (
	opNone     op = iota
	opPush        // push with payload
	opPull        // pull, or exchange without content: request + response
	opExchange    // exchange with content: payload push + response
)

// noTarget marks an unresolved or dead target in Network.tgt.
const noTarget int32 = -1

// destCell accumulates, per (worker, destination node), what the worker's
// initiators did to that node. After the cursor pass the msgs field is
// recycled as the worker's write cursor into the message arena.
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
	pIntents passID = iota + 1
	pMerge
	pSelf
	pCursor
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

	net.cells = make([][]destCell, workers)
	for w := range net.cells {
		net.cells[w] = make([]destCell, n)
	}
	net.spans = make([][2]int, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		net.spans[w] = [2]int{lo, hi}
	}
	net.wstats = make([]workerStats, workers)
	net.rangeBase = make([]int32, workers)

	net.roundMixRound = -1
	net.ops = make([]op, n)
	net.tgt = make([]int32, n)
	net.staged = make([]Message, n)
	net.resp = make([]Message, n)
	net.respOK = make([]bool, n)
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
	case pIntents:
		net.passIntents(w, lo, hi)
	case pMerge:
		net.passMerge(w, lo, hi)
	case pSelf:
		net.passSelf(w, lo, hi)
	case pCursor:
		net.passCursor(w, lo, hi)
	case pFill:
		net.passFill(w, lo, hi)
	case pDeliver:
		net.passDeliver(lo, hi)
	}
}

// ExecRound executes one synchronous round.
//
// intentOf is invoked once per live node and returns that node's initiated
// communication. responseOf is invoked at most once per live node that is
// pulled from and returns the node's address-oblivious response (ok=false
// means the node does not respond this round). deliver is invoked once per
// live node that received at least one message, with the node's inbox; inbox
// slices alias the engine's reusable message arena and are only valid during
// the callback — callbacks that retain messages must copy them out.
//
// Any of the callbacks may be nil. The callbacks of a node may only touch
// that node's own state: the engine invokes them from concurrent shards when
// the network is configured with more than one worker.
func (net *Network) ExecRound(
	intentOf func(i int) Intent,
	responseOf func(i int) (Message, bool),
	deliver func(i int, inbox []Message),
) RoundReport {
	net.checkAbort()
	net.round++
	if net.roundHook != nil {
		// Scenario hook: may Fail, Revive or SetLoss before this round's
		// intents are evaluated (coordinator goroutine, so those mutations
		// happen-before every pass).
		net.roundHook(net.round)
	}
	obs := net.observer
	if obs != nil {
		obs.BeginRound(net.round, RoundInfo{
			HasIntent:   intentOf != nil,
			HasResponse: responseOf != nil,
			HasDeliver:  deliver != nil,
		})
	}
	if intentOf == nil {
		// No initiator means an empty round: nothing is sent, charged or
		// delivered.
		rep := RoundReport{Round: net.round}
		if obs != nil {
			obs.EndRound(rep)
		}
		return rep
	}
	if net.corrupted > 0 {
		// Byzantine seam: behaviors rewrite outgoing traffic before the
		// observer taps it (verifiers check what is actually sent) and
		// before any executor delegation (the live lock-step runtime
		// inherits behaviors through the wrapped callbacks).
		intentOf, responseOf = net.behaviorCallbacks(intentOf, responseOf)
	}
	if obs != nil {
		intentOf, responseOf, deliver = net.observedCallbacks(obs, intentOf, responseOf, deliver)
	}
	if net.executor != nil {
		// An external executor (internal/live) runs the round; the Network
		// merges its delta exactly like the engine's own worker shards.
		rep := net.runExternal(intentOf, responseOf, deliver)
		if obs != nil {
			obs.EndRound(rep)
		}
		return rep
	}

	net.curIntent = intentOf
	net.curResponse = responseOf
	net.curDeliver = deliver
	net.refreshRoundMix()
	if net.lossRate > 0 {
		net.refreshLossMix()
	}

	net.runParallel(pIntents)
	pulls := int64(0)
	for w := range net.wstats {
		pulls += net.wstats[w].pullEvents
	}
	// Rounds without live pulls (all push traffic — the most common protocol
	// rounds) have no responses: the merge pass computes the final inbox
	// counts directly and the self-response pass is skipped.
	net.noPulls = pulls == 0
	net.runParallel(pMerge)
	if !net.noPulls {
		net.runParallel(pSelf)
	}

	// Coordinator step: per-shard base offsets into the arena, then size it.
	total := int64(0)
	for w := 0; w < net.nw; w++ {
		net.rangeBase[w] = int32(total)
		total += net.wstats[w].inboxLen
	}
	if int(total) > cap(net.slab) {
		// The first arena holds n messages (a round in which every node
		// receives one) and later ones double, up to the 2n bound on an arena:
		// rounds usually grow gradually, and sizing each new maximum exactly
		// would re-make the arena round after round.
		net.slab = make([]Message, max(int(total), min(max(2*cap(net.slab), net.n), 2*net.n)))
	}
	net.slab = net.slab[:total]

	net.runParallel(pCursor)
	if total > 0 {
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

	net.curIntent = nil
	net.curResponse = nil
	net.curDeliver = nil

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

// passIntents evaluates the intents of the shard's initiators, resolves their
// targets and accounts everything the initiator side determines: payload and
// control messages, bits, per-node sent counters and the per-destination
// message/pull/communication counts used by the later passes.
func (net *Network) passIntents(w, lo, hi int) {
	cells := net.cells[w]
	clear(cells)
	st := &net.wstats[w]
	intentOf := net.curIntent
	sent := net.metrics.MessagesSent
	sel := net.selector
	round := net.round

	for i := lo; i < hi; i++ {
		if net.failed[i] {
			net.ops[i] = opNone
			continue
		}
		it := intentOf(i)
		if it.Kind == None {
			net.ops[i] = opNone
			continue
		}
		var j int
		var ok bool
		if it.Target.Random {
			if sel != nil {
				j, ok = sel.SelectPeer(round, i)
			} else {
				j, ok = net.resolveRandom(i), true
			}
		} else {
			j, ok = net.resolveTarget(i, it.Target)
		}
		cells[i].comms++
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
			net.tgt[i] = int32(j)
		} else {
			net.tgt[i] = noTarget
		}
		switch it.Kind {
		case Push:
			msg := it.Payload
			msg.From = net.ids[i]
			st.messages++
			st.bits += int64(net.MessageSize(msg))
			sent[i]++
			if live {
				cells[j].msgs++
			}
			net.ops[i] = opPush
			net.staged[i] = msg
		case Pull, Exchange:
			if it.Kind == Exchange && it.Payload.HasContent() {
				msg := it.Payload
				msg.From = net.ids[i]
				st.messages++
				st.bits += int64(net.MessageSize(msg))
				sent[i]++
				if live {
					cells[j].msgs++
				}
				net.ops[i] = opExchange
				net.staged[i] = msg
			} else {
				st.control++
				st.bits += int64(net.controlSize())
				sent[i]++
				net.ops[i] = opPull
			}
			if live {
				cells[j].pulls++
				st.pullEvents++
			}
		default:
			net.ops[i] = opNone
		}
	}
}

// passMerge merges the per-worker destination counts for the shard's node
// range, computes each pulled node's address-oblivious response (invoking
// responseOf exactly once per pulled node) and accounts the response fan-out.
// In pull-free rounds it also finalizes the shard's inbox length, replacing
// the skipped passSelf.
func (net *Network) passMerge(w, lo, hi int) {
	st := &net.wstats[w]
	respond := net.curResponse
	sent := net.metrics.MessagesSent
	nw := net.nw
	maxComms := st.maxComms

	if net.noPulls {
		total := int64(0)
		for d := lo; d < hi; d++ {
			var msgs, comms int32
			for w2 := 0; w2 < nw; w2++ {
				c := &net.cells[w2][d]
				msgs += c.msgs
				comms += c.comms
			}
			if comms > maxComms {
				maxComms = comms
			}
			net.inCount[d] = msgs
			total += int64(msgs)
		}
		st.inboxLen = total
		st.maxComms = maxComms
		return
	}

	for d := lo; d < hi; d++ {
		var msgs, pulls, comms int32
		for w2 := 0; w2 < nw; w2++ {
			c := &net.cells[w2][d]
			msgs += c.msgs
			pulls += c.pulls
			comms += c.comms
		}
		if comms > maxComms {
			maxComms = comms
		}
		if pulls > 0 {
			// Only live nodes are pulled (passIntents drops dead targets), so
			// d may respond. The single response is handed to every puller
			// and each copy is charged, exactly as in the model.
			ok := false
			if respond != nil {
				m, has := respond(d)
				if has {
					m.From = net.ids[d]
					net.resp[d] = m
					size := int64(net.MessageSize(m))
					st.messages += int64(pulls)
					st.bits += size * int64(pulls)
					sent[d] += int64(pulls)
					ok = true
				}
			}
			net.respOK[d] = ok
		}
		net.inCount[d] = msgs
	}
	st.maxComms = maxComms
}

// passSelf adds each puller's incoming response to its own inbox count. It
// runs after the merge barrier because a puller's target — and hence the
// respOK flag it depends on — can live in any shard.
func (net *Network) passSelf(w, lo, hi int) {
	cells := net.cells[w]
	total := int64(0)
	for i := lo; i < hi; i++ {
		if o := net.ops[i]; o == opPull || o == opExchange {
			if t := net.tgt[i]; t != noTarget && net.respOK[t] {
				cells[i].msgs++
				net.inCount[i]++
			}
		}
		total += int64(net.inCount[i])
	}
	net.wstats[w].inboxLen = total
}

// passCursor turns the per-(worker,destination) counts into write cursors
// into the message arena. A destination's inbox starts at inOff[d]; within it
// worker w's messages start after those of workers < w, and each worker fills
// its span in ascending initiator order, so the concatenation is ordered
// exactly like the sequential engine's append order — by initiator index,
// with a puller's own response sitting at its initiator position.
func (net *Network) passCursor(w, lo, hi int) {
	run := net.rangeBase[w]
	nw := net.nw
	for d := lo; d < hi; d++ {
		net.inOff[d] = run
		cur := run
		for w2 := 0; w2 < nw; w2++ {
			c := &net.cells[w2][d]
			count := c.msgs
			c.msgs = cur
			cur += count
		}
		run += net.inCount[d]
	}
}

// passFill copies the round's messages into the arena: each initiator's
// pushed payload at its target's cursor and each puller's received response
// at its own cursor.
func (net *Network) passFill(w, lo, hi int) {
	cells := net.cells[w]
	for i := lo; i < hi; i++ {
		o := net.ops[i]
		if o == opNone {
			continue
		}
		t := net.tgt[i]
		if o == opPush || o == opExchange {
			if t != noTarget {
				c := &cells[t]
				net.slab[c.msgs] = net.staged[i]
				c.msgs++
			}
		}
		if (o == opPull || o == opExchange) && t != noTarget && net.respOK[t] {
			m := net.resp[t]
			c := &cells[i]
			net.slab[c.msgs] = m
			c.msgs++
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

// passDeliver hands every non-empty inbox to the delivery callback.
func (net *Network) passDeliver(lo, hi int) {
	deliver := net.curDeliver
	poison := net.cfg.PoisonInbox
	for d := lo; d < hi; d++ {
		if c := net.inCount[d]; c > 0 {
			off := net.inOff[d]
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
