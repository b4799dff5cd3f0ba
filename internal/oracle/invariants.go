package oracle

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/phonecall"
)

// Checker is the invariant-checking engine wrapper: registered on a live
// Network through the RoundObserver seam (net.Observe(checker)), it watches
// every call, payload, response and delivery the engine evaluates and
// validates the per-round model contracts of DESIGN.md §2 under ANY
// protocol — the paper's closed clustering algorithms as much as the
// steppable scenario protocols:
//
//   - each live node's call is evaluated exactly once per round, and the
//     payload of each Push or Exchange call exactly once, after it; dead
//     nodes never act (no call, no payload, no response, no delivery);
//   - responses are evaluated at most once per node, and only for nodes a
//     live pull actually reached;
//   - the communication, message, bit and pull charges match the
//     live-participant rule, including the round's Δ and the cumulative
//     metrics deltas;
//   - every inbox matches the model's content and order (by initiator
//     index, a puller's own response at its initiator position), and the
//     delivered spans of the arena are pairwise disjoint.
//
// Expected charges and inboxes are recomputed from the observed calls and
// payloads with the same spec evaluator the reference Oracle runs on — the
// model definition, not the engine's code.
//
// The checks split into two classes with different scopes:
//
//   - MODEL invariants (everything above): properties of the execution
//     machinery — exactly-once evaluation, the live-participant charges,
//     inbox order, arena discipline. These hold no matter what the nodes
//     send, so they are asserted unconditionally, Byzantine behaviors
//     included: the engine wraps behaviors before the observer taps the
//     callbacks, so the Checker always sees (and re-charges) the traffic
//     that was actually sent.
//
//   - HONEST-NODE invariants: properties of a node following the protocol —
//     a holdings message advertises only rumors the sender actually holds
//     and only rumors that exist (no forged bits). These are meaningless for
//     a corrupted node, so they are asserted exactly for the nodes without
//     an installed behavior (phonecall.Network.Corrupted), and only when the
//     Checker has been handed mask holdings (BindHoldings; the scenario
//     driver binds its ledger). Under a closed protocol, or a run that keeps
//     its holdings in a rumor set, they are unknowable here and the honest
//     checks stay off.
//
// Violations are collected (capped) rather than panicking; check Err after
// the run. The Checker is safe for the engine's concurrent shards.
type Checker struct {
	net   *phonecall.Network
	masks maskHoldings
	info  phonecall.RoundInfo

	round       int
	prevMetrics phonecall.Metrics

	callSeen    []atomic.Int32
	calls       []phonecall.Call
	paySeen     []atomic.Int32
	payloads    []phonecall.Message
	respSeen    []atomic.Int32
	resps       []phonecall.Message
	respOK      []bool
	deliverSeen []atomic.Int32
	inboxes     [][]phonecall.Message
	spans       [][2]uintptr

	mu   sync.Mutex
	errs []error
}

// maxViolations caps how many violations a Checker records; everything past
// the cap is dropped (the first violation is what matters).
const maxViolations = 16

// NewChecker builds a Checker for the network. Register it with
// net.Observe(c); it validates every subsequent round until unregistered.
func NewChecker(net *phonecall.Network) *Checker {
	c := &Checker{}
	c.BindNetwork(net)
	return c
}

// NewDeferredChecker builds a Checker with no network yet, for drivers that
// construct their network internally and bind observers through the
// phonecall.NetworkBinder seam (the scenario driver). The Checker sizes its
// state at BindNetwork time.
func NewDeferredChecker() *Checker { return &Checker{} }

// BindNetwork implements phonecall.NetworkBinder. The first bound network
// wins; rebinding is ignored.
func (c *Checker) BindNetwork(net *phonecall.Network) {
	if c.net != nil {
		return
	}
	n := net.N()
	c.net = net
	c.callSeen = make([]atomic.Int32, n)
	c.calls = make([]phonecall.Call, n)
	c.paySeen = make([]atomic.Int32, n)
	c.payloads = make([]phonecall.Message, n)
	c.respSeen = make([]atomic.Int32, n)
	c.resps = make([]phonecall.Message, n)
	c.respOK = make([]bool, n)
	c.deliverSeen = make([]atomic.Int32, n)
	c.inboxes = make([][]phonecall.Message, n)
	c.spans = make([][2]uintptr, 0, n)
}

// maskHoldings is what the honest-node invariants read: the 64-bit holdings
// masks a TagHoldings message's Value is compared against. A
// *phonecall.RumorTracker implements it, and so does the scenario driver's
// mask ledger.
type maskHoldings interface {
	Held(node int) uint64
	Registered() uint64
}

// BindHoldings implements phonecall.HoldingsBinder: holdings kept as masks
// switch the honest-node invariants on (for uncorrupted nodes). The scenario
// driver binds its ledger automatically.
func (c *Checker) BindHoldings(h phonecall.Holdings) { c.masks, _ = h.(maskHoldings) }

// violate records one contract violation.
func (c *Checker) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < maxViolations {
		c.errs = append(c.errs, fmt.Errorf("round %d: "+format, append([]any{c.round}, args...)...))
	}
}

// Err returns the first recorded violation, or nil.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) == 0 {
		return nil
	}
	return c.errs[0]
}

// Violations returns every recorded violation (capped at maxViolations).
func (c *Checker) Violations() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

// BeginRound implements phonecall.RoundObserver.
func (c *Checker) BeginRound(round int, info phonecall.RoundInfo) {
	c.round = round
	c.info = info
	c.prevMetrics = c.net.Metrics()
	for i := range c.calls {
		c.callSeen[i].Store(0)
		c.paySeen[i].Store(0)
		c.respSeen[i].Store(0)
		c.deliverSeen[i].Store(0)
		c.inboxes[i] = nil
	}
	c.spans = c.spans[:0]
}

// ObserveCall implements phonecall.RoundObserver. Shard goroutine; writes
// are index-owned, counters atomic.
func (c *Checker) ObserveCall(i int, call phonecall.Call) {
	if c.callSeen[i].Add(1) == 1 {
		c.calls[i] = call
	} else {
		c.violate("node %d: call evaluated more than once", i)
	}
	if c.net.IsFailed(i) {
		c.violate("node %d: dead node initiated a call", i)
	}
}

// ObservePayload implements phonecall.RoundObserver. Shard goroutine, after
// the node's own ObserveCall.
func (c *Checker) ObservePayload(i int, m phonecall.Message) {
	if c.paySeen[i].Add(1) == 1 {
		c.payloads[i] = m
	} else {
		c.violate("node %d: payload asked for more than once", i)
	}
	if k := c.calls[i].Kind; c.callSeen[i].Load() == 0 || (k != phonecall.Push && k != phonecall.Exchange) {
		c.violate("node %d: payload asked for without a Push or Exchange call", i)
	}
	c.checkHonest(i, m, "payload")
}

// checkHonest asserts the honest-node contract on one outgoing holdings
// message: an uncorrupted node advertises only rumors it actually holds and
// only rumors that exist. Skipped exactly for corrupted nodes, and entirely
// when no mask holdings are bound (holdings unknowable). Safe from shard
// goroutines: holdings only change in the deliver pass, which runs after
// every call, payload and response evaluation of the round.
func (c *Checker) checkHonest(i int, m phonecall.Message, what string) {
	if c.masks == nil || m.Tag != phonecall.TagHoldings || c.net.Corrupted(i) {
		return
	}
	if forged := m.Value &^ c.masks.Registered(); forged != 0 {
		c.violate("node %d: honest node's %s carries forged rumor bits %#x (no such rumors)", i, what, forged)
	}
	if over := m.Value &^ c.masks.Held(i); over != 0 {
		c.violate("node %d: honest node's %s advertises rumors %#x it does not hold", i, what, over)
	}
}

// ObserveResponse implements phonecall.RoundObserver.
func (c *Checker) ObserveResponse(i int, m phonecall.Message, ok bool) {
	if c.respSeen[i].Add(1) == 1 {
		c.resps[i] = m
		c.respOK[i] = ok
	} else {
		c.violate("node %d: responseOf evaluated more than once", i)
	}
	if c.net.IsFailed(i) {
		c.violate("node %d: dead node was asked to respond", i)
	}
	if ok {
		c.checkHonest(i, m, "response")
	}
}

// ObserveDeliver implements phonecall.RoundObserver. Copies the inbox (the
// slice aliases the arena) and records its physical span for the
// disjointness check.
func (c *Checker) ObserveDeliver(i int, inbox []phonecall.Message) {
	if c.deliverSeen[i].Add(1) == 1 {
		cp := make([]phonecall.Message, len(inbox))
		copy(cp, inbox)
		c.inboxes[i] = cp
	} else {
		c.violate("node %d: inbox delivered more than once", i)
	}
	if c.net.IsFailed(i) {
		c.violate("node %d: delivery to a dead node", i)
	}
	if len(inbox) == 0 {
		c.violate("node %d: delivery of an empty inbox", i)
	} else {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(inbox)))
		end := start + uintptr(len(inbox))*unsafe.Sizeof(phonecall.Message{})
		c.mu.Lock()
		c.spans = append(c.spans, [2]uintptr{start, end})
		c.mu.Unlock()
	}
}

// EndRound implements phonecall.RoundObserver: replays the observed calls
// and payloads through the model spec and validates every charge and every
// inbox.
// Coordinator goroutine, after all passes.
func (c *Checker) EndRound(rep phonecall.RoundReport) {
	if rep.Round != c.round {
		c.violate("report carries round %d", rep.Round)
	}
	n := c.net.N()
	if !c.info.HasCall {
		// Empty round: nothing may have been evaluated or delivered.
		for i := 0; i < n; i++ {
			if c.callSeen[i].Load() != 0 || c.paySeen[i].Load() != 0 || c.respSeen[i].Load() != 0 || c.deliverSeen[i].Load() != 0 {
				c.violate("node %d: activity in an empty round", i)
			}
		}
		if rep.Messages != 0 || rep.Bits != 0 || rep.MaxComms != 0 {
			c.violate("charges in an empty round: %+v", rep)
		}
		return
	}

	// Exactly-once call evaluation for the live population, and a payload
	// for every call that carries one.
	for i := 0; i < n; i++ {
		seen := c.callSeen[i].Load()
		if c.net.IsFailed(i) {
			continue // dead-node activity was flagged at observation time
		}
		if seen != 1 {
			c.violate("node %d: live node's call evaluated %d times", i, seen)
		}
		if k := c.calls[i].Kind; seen > 0 && (k == phonecall.Push || k == phonecall.Exchange) && c.paySeen[i].Load() == 0 {
			c.violate("node %d: %v call's payload never asked for", i, k)
		}
	}

	// Replay the observed calls and payloads through the model definition.
	// An installed peer selector is part of the network's contract, so the
	// replay resolves random targets through it too (the selector is a pure
	// function of (round, initiator) during the round — re-asking it is
	// safe).
	env := roundEnv{
		N:           n,
		Round:       c.round,
		Seed:        c.net.Seed(),
		LossRate:    c.net.LossRate(),
		LossSeed:    c.net.LossSeed(),
		IsFailed:    c.net.IsFailed,
		ID:          c.net.ID,
		IndexOf:     c.net.IndexOf,
		MessageBits: c.net.MessageSize,
		ControlBits: c.net.ControlBits(),
	}
	if sel := c.net.PeerSelector(); sel != nil {
		env.SelectPeer = sel.SelectPeer
	}
	s := newSpecRound(env)
	for i := 0; i < n; i++ {
		if !c.net.IsFailed(i) && c.callSeen[i].Load() > 0 && s.addCall(i, c.calls[i]) {
			s.addPayload(i, c.payloads[i])
		}
	}
	pulledSet := make(map[int]bool)
	for _, d := range s.pulled() {
		pulledSet[d] = true
		if c.info.HasResponse {
			if c.respSeen[d].Load() != 1 {
				c.violate("node %d: pulled node's response evaluated %d times", d, c.respSeen[d].Load())
			} else {
				s.addResponse(d, c.resps[d], c.respOK[d])
			}
		}
	}
	for d := 0; d < n; d++ {
		if c.respSeen[d].Load() > 0 && !pulledSet[d] {
			c.violate("node %d: responded without a live pull reaching it", d)
		}
	}

	// Charges: the round report and the cumulative metrics must match the
	// live-participant rule applied to the observed calls.
	want := s.report()
	if rep != want {
		c.violate("report %+v does not match the model's %+v", rep, want)
	}
	cur := c.net.Metrics()
	if d := cur.Messages - c.prevMetrics.Messages; d != s.msgs {
		c.violate("payload message delta %d, model says %d", d, s.msgs)
	}
	if d := cur.ControlMessages - c.prevMetrics.ControlMessages; d != s.control {
		c.violate("control message delta %d, model says %d", d, s.control)
	}
	if d := cur.Bits - c.prevMetrics.Bits; d != s.bits {
		c.violate("bit delta %d, model says %d", d, s.bits)
	}
	wantMax := c.prevMetrics.MaxCommsPerRound
	if mc := s.maxComms(); mc > wantMax {
		wantMax = mc
	}
	if cur.MaxCommsPerRound != wantMax {
		c.violate("cumulative Δ %d, model says %d", cur.MaxCommsPerRound, wantMax)
	}

	// Inboxes: exact content and order, delivered iff non-empty.
	expected := s.inboxes()
	for i := 0; i < n; i++ {
		delivered := c.deliverSeen[i].Load() > 0
		if want := len(expected[i]) > 0; delivered != want {
			c.violate("node %d: delivered=%v but the model's inbox has %d messages",
				i, delivered, len(expected[i]))
			continue
		}
		if delivered && !reflect.DeepEqual(c.inboxes[i], expected[i]) {
			c.violate("node %d: inbox diverges from the model:\n  engine: %+v\n  model:  %+v",
				i, c.inboxes[i], expected[i])
		}
	}

	// Arena spans: every delivered inbox must occupy its own slice of the
	// arena; overlapping spans would mean one node's inbox aliases another's.
	sort.Slice(c.spans, func(a, b int) bool { return c.spans[a][0] < c.spans[b][0] })
	for k := 1; k < len(c.spans); k++ {
		if c.spans[k][0] < c.spans[k-1][1] {
			c.violate("inbox arena spans overlap: [%x,%x) and [%x,%x)",
				c.spans[k-1][0], c.spans[k-1][1], c.spans[k][0], c.spans[k][1])
		}
	}
}
