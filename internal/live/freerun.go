package live

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/rumorset"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// FreeRunConfig configures a free-running execution.
type FreeRunConfig struct {
	// N is the number of nodes (required, >= 2).
	N int
	// Seed drives the deterministic parts: node IDs, and each node's random
	// contact for its local round r (the model's stateless hash, so a node's
	// contact sequence is reproducible even though timing is not).
	Seed uint64
	// Rounds is the per-node local round budget (required, >= 1).
	Rounds int
	// MaxSkew bounds how many rounds a node may run ahead of the slowest
	// live node (default 3). This is the flow control that replaces the
	// global barrier.
	MaxSkew int
	// Algorithm is the steppable gossip protocol (push, pull, push-pull;
	// default push-pull).
	Algorithm scenario.Algorithm
	// PayloadBits is the per-rumor payload size b (default 256).
	PayloadBits int
	// Events is a scenario timeline. Events fire when the round frontier
	// (the minimum local round among live nodes) reaches them: CrashAt kills
	// nodes, JoinAt revives them uninformed at the frontier, InjectRumor
	// seeds holdings, Loss retunes the transport's drop injection (when the
	// transport supports it), CorruptAt installs Byzantine behaviors that
	// rewrite the node's outgoing calls and pull answers from its next local
	// round on. Without an InjectRumor event node 0 starts holding rumor 0.
	Events []scenario.Event
	// Transport carries the frames; nil gets a private zero-delay channel
	// mesh. Lossy and delaying transports are the point of this mode.
	Transport Transport
	// PeerSelector, when non-nil, replaces the uniform random-contact hash
	// with a policy-driven one (internal/policy.Selector) — each node's
	// random contact for its local round r is then the selector's answer for
	// (r, node). A selector that declines (no admissible peer) makes the
	// node sit the round out silently: the free-running engine only charges
	// calls it actually sends. Zone and partition timeline events require a
	// selector that carries a topology.
	PeerSelector phonecall.PeerSelector
	// OnFrontier, when non-nil, is invoked on Run's goroutine (the monitor's)
	// every time the round frontier advances, with the monitor's population
	// view — the free-running analogue of a per-round observer. There is no
	// global round, so no per-round traffic figures accompany it.
	OnFrontier func(FrontierInfo)
	// Telemetry, when non-nil, receives live traffic counters from the node
	// send paths (repro_messages_total, repro_bits_total labeled
	// engine="free-running"), sharded per node and merged at read time — the
	// counters a /metrics scrape sees move while the run executes. Nil keeps
	// the send path branch-identical to a run without telemetry. With a
	// Stream it additionally carries the rumor-set series
	// (repro_rumors_active, repro_rumors_injected_total,
	// repro_rumors_converged_total, repro_rumors_expired_total and the
	// repro_rumor_injection_stalled gauge), updated by the monitor.
	Telemetry *telemetry.Registry
	// Stream, when non-nil, switches the run to the scalable rumor-set layer:
	// the monitor continuously injects rumors at the configured rate through a
	// bounded in-flight window, nodes gossip variable-length rumor-ID
	// summaries instead of a 64-bit holdings mask, and converged rumors are
	// garbage-collected so their window slots recycle. Nil keeps the legacy
	// bitmask mode, bit-for-bit.
	Stream *StreamConfig
}

// StreamConfig configures continuous rumor injection for a free-running run.
// Rumor IDs are the dense sequence 0..Total-1; rumor k is seeded at the first
// live node at or after index k mod N when the injection schedule reaches it.
type StreamConfig struct {
	// Total is the number of rumors the stream injects over the whole run
	// (required, >= 1).
	Total int
	// Rate is the injection rate in rumors per frontier round (default 1):
	// when the round frontier is at f, up to ceil(Rate*(f+1)) rumors have been
	// injected. Injection additionally stalls whenever the in-flight window is
	// full — the backpressure that keeps memory bounded when GC lags.
	Rate float64
	// MaxInFlight bounds the concurrently active rumors (the rumor-set window;
	// default min(Total, 1024)).
	MaxInFlight int
}

// FrontierInfo is the monitor's view of one frontier advance.
type FrontierInfo struct {
	// Frontier is the new round frontier (the minimum local round among live
	// nodes); MaxRound is the furthest local clock among live nodes — dead
	// nodes' frozen clocks are excluded, like the frontier itself — so
	// MaxRound-Frontier is the current skew.
	Frontier int
	MaxRound int
	// Live counts live nodes; Informed counts live nodes holding every
	// registered rumor.
	Live     int
	Informed int
}

// FreeRun executes gossip without a global barrier: every node advances its
// own round clock on a goroutine of its own, sending and draining frames as it
// goes, while Run's goroutine makes the monitor passes that maintain the round
// frontier, enforce the skew bound, fire timeline events and detect
// convergence: one before any node steps, then one per wake from a node.
type FreeRun struct {
	cfg FreeRunConfig
	net *phonecall.Network // ID directory, message sizing and live set; its engine never runs
	tr  Transport
	own bool

	// Per-node holdings, one slab per mode (the other is nil): masks over the
	// registered set, or rows of the shared rumor set.
	mask       []maskHoldings
	wide       []setHoldings
	registered atomic.Uint64
	// roundOf is each node's last completed local round: only the node's
	// CompareAndSwap(r-1, r) and a revive move it.
	roundOf []atomic.Int64
	behav   []atomic.Pointer[frBehavior]

	minRound     atomic.Int64
	stopped      atomic.Bool
	completionAt int64

	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup

	// Wake hints (finished): ended[r % len] counts the nodes that finished
	// round r and is zeroed as the frontier passes r, and nInformed, on the
	// mask path, counts nodes that finished a round informed of the
	// registered set. Neither counts low, nor does the network's live count,
	// so a hint wakes the monitor early or on time, and the pass's census
	// decides.
	wake      chan struct{}
	ended     []atomic.Int64
	nInformed atomic.Int64

	events  []scenario.Event
	nextEv  int
	ignored int   // events the runtime could not honor
	lost    int64 // InjectRumor events that landed on a crashed node

	// Rumor-stream state (nil/zero in legacy bitmask mode). set is the shared
	// ground truth: nodes mark their own rows from their goroutines, the
	// monitor owns injection, GC and the convergence scan. injectNext,
	// stalls, reseeded and telLast are monitor-only, like completionAt.
	stream     *StreamConfig
	set        *rumorset.Set
	scanBuf    []rumorset.ID
	orphanBuf  []rumorset.ID
	injectNext int
	stalls     int64
	reseeded   int64
	telLast    rumorset.Stats

	stats []frStats

	// Run slabs the nodes carve their start-up state from, so a run allocates
	// them once rather than once per node: each node's drain list
	// (mailboxSlots entries) and its firstSpares first send buffers of
	// spareLen bytes, the longest honest mask frame of the run (on a stream,
	// room for bare pulls and short summaries).
	drains      [][]byte
	firstFrames []byte
	spareLen    int

	// tel holds the pre-resolved telemetry counters (nil without a registry):
	// instrument lookup happens once in NewFreeRun, the node send paths only
	// pay a nil check and two sharded atomic adds.
	tel *frTelemetry
}

// frTelemetry is the free-running send-path instrument set.
type frTelemetry struct {
	msgs     *telemetry.Counter // payload + control, like the engine's report
	bitsSent *telemetry.Counter
	// Stream series, resolved only with a StreamConfig; updated by the
	// monitor, so the node send paths stay as cheap as legacy mode.
	rumorsActive   *telemetry.Gauge
	injectedTotal  *telemetry.Counter
	convergedTotal *telemetry.Counter
	expiredTotal   *telemetry.Counter
	stalled        *telemetry.Gauge
}

// NewFreeRun validates the configuration and prepares a run.
func NewFreeRun(cfg FreeRunConfig) (*FreeRun, error) {
	if err := validateN(cfg.N); err != nil {
		return nil, err
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("live: free-running needs a round budget >= 1 (got %d)", cfg.Rounds)
	}
	if cfg.MaxSkew < 1 {
		cfg.MaxSkew = 3
	}
	var err error
	if cfg.Algorithm, err = cfg.Algorithm.OrDefault(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	// Validate the timeline up-front with the shared authority, so an invalid
	// event is a typed construction error here exactly as it is on the
	// simulator and lock-step engines — not a silent IgnoredEvents bump at
	// fire time.
	if err := scenario.ValidateEvents(cfg.N, cfg.Stream != nil, cfg.Events); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	zones := 0
	if sel, ok := cfg.PeerSelector.(*policy.Selector); ok {
		zones = sel.Zones()
	}
	if err := scenario.ValidateZones(zones, cfg.Events); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	hasInject := false
	for _, ev := range cfg.Events {
		if _, ok := ev.(scenario.InjectRumor); ok {
			hasInject = true
		}
	}
	stream := cfg.Stream
	if stream != nil {
		if hasInject {
			return nil, fmt.Errorf("live: %w: a rumor stream is the sole injector; drop the InjectRumor events", scenario.ErrSpec)
		}
		s := *stream // defaulting must not mutate the caller's struct
		if s.Total < 1 {
			return nil, fmt.Errorf("live: %w: rumor stream needs Total >= 1 (got %d)", scenario.ErrSpec, s.Total)
		}
		if s.Rate <= 0 {
			s.Rate = 1
		}
		if s.MaxInFlight <= 0 {
			s.MaxInFlight = min(s.Total, 1024)
		}
		stream = &s
	}
	net, err := phonecall.New(phonecall.Config{N: cfg.N, Seed: cfg.Seed, PayloadBits: cfg.PayloadBits, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if cfg.PeerSelector != nil {
		net.SetPeerSelector(cfg.PeerSelector)
	}
	tr := cfg.Transport
	own := false
	if tr == nil {
		if tr, err = NewChannelTransport(cfg.N, ChannelConfig{}); err != nil {
			return nil, err
		}
		own = true
	}
	if tr.N() != cfg.N {
		return nil, fmt.Errorf("live: transport has %d endpoints for %d nodes", tr.N(), cfg.N)
	}
	fr := &FreeRun{
		cfg:     cfg,
		net:     net,
		tr:      tr,
		own:     own,
		stream:  stream,
		roundOf: make([]atomic.Int64, cfg.N),
		behav:   make([]atomic.Pointer[frBehavior], cfg.N),
		stats:   make([]frStats, cfg.N),
		wake:    make(chan struct{}, 1),
		ended:   make([]atomic.Int64, min(cfg.MaxSkew, cfg.Rounds)+2),
		drains:  make([][]byte, cfg.N*mailboxSlots),
	}
	full := phonecall.MaskView{Held: ^uint64(0), Registered: ^uint64(0)}.Message(net)
	fr.spareLen = headerLen(cfg.Rounds, cfg.N-1) + messageLen(&full)
	fr.firstFrames = make([]byte, cfg.N*firstSpares*fr.spareLen)
	if stream != nil {
		if fr.set, err = rumorset.New(cfg.N, stream.MaxInFlight); err != nil {
			return nil, fmt.Errorf("live: %w", err)
		}
		fr.wide = make([]setHoldings, cfg.N)
		for i := range fr.wide {
			fr.wide[i] = setHoldings{set: fr.set, node: i, net: net}
		}
	} else {
		fr.mask = make([]maskHoldings, cfg.N)
		for i := range fr.mask {
			fr.mask[i].reg, fr.mask[i].net = &fr.registered, net
		}
	}
	if cfg.Telemetry != nil {
		by := []telemetry.Label{
			{Key: "algo", Value: string(cfg.Algorithm)},
			{Key: "engine", Value: "free-running"},
		}
		fr.tel = &frTelemetry{
			msgs:     cfg.Telemetry.Counter("repro_messages_total", by...),
			bitsSent: cfg.Telemetry.Counter("repro_bits_total", by...),
		}
		if stream != nil {
			fr.tel.rumorsActive = cfg.Telemetry.Gauge("repro_rumors_active", by...)
			fr.tel.injectedTotal = cfg.Telemetry.Counter("repro_rumors_injected_total", by...)
			fr.tel.convergedTotal = cfg.Telemetry.Counter("repro_rumors_converged_total", by...)
			fr.tel.expiredTotal = cfg.Telemetry.Counter("repro_rumors_expired_total", by...)
			fr.tel.stalled = cfg.Telemetry.Gauge("repro_rumor_injection_stalled", by...)
		}
	}
	fr.cond = sync.NewCond(&fr.mu)
	fr.events = append(fr.events, cfg.Events...)
	sort.SliceStable(fr.events, func(a, b int) bool {
		return fr.events[a].EventRound() < fr.events[b].EventRound()
	})
	if !hasInject && stream == nil {
		fr.events = append([]scenario.Event{scenario.InjectRumor{At: 1, Node: 0, Rumor: 0}}, fr.events...)
	}
	return fr, nil
}

// Run executes the workload to convergence, budget exhaustion or timeline
// end, and fills in the result: Rounds is the furthest local clock,
// CompletionRound the frontier at which a monitor pass first saw convergence,
// Informed the live nodes holding every injected rumor. The monitor runs on
// the caller's goroutine, one pass before any node steps and then one each
// time a node's finished round wakes it, so OnFrontier is invoked there too.
// A done ctx stops every node and the monitor promptly; the partial result is
// returned together with the context's error. Run may be called once.
func (fr *FreeRun) Run(ctx context.Context) (trace.Result, error) {
	start := time.Now()
	if ctx != nil {
		stopWatch := context.AfterFunc(ctx, fr.stop)
		defer stopWatch()
	}
	// Events at round 1 and the stream's first injections apply before any
	// communication at all.
	fr.pass()
	// Goroutines first run in the order they are started, and the first ones
	// get up to MaxSkew rounds ahead of the last; starting from a seeded node
	// keeps where a rumor was injected from deciding how fast it spreads.
	fr.wg.Add(fr.cfg.N)
	first := int(rng.Mix(fr.cfg.Seed, 0x57a27) % uint64(fr.cfg.N))
	for k := 0; k < fr.cfg.N; k++ {
		go fr.nodeLoop((first + k) % fr.cfg.N)
	}
	for !fr.stopped.Load() {
		<-fr.wake
		fr.pass()
	}
	fr.wg.Wait()
	if fr.own {
		fr.tr.Close()
	}

	res := trace.Result{
		Algorithm:       string(fr.cfg.Algorithm),
		N:               fr.cfg.N,
		Seed:            fr.cfg.Seed,
		CompletionRound: int(fr.completionAt),
		UnfiredEvents:   len(fr.events) - fr.nextEv,
		IgnoredEvents:   fr.ignored,
		LostInjects:     fr.lost,
		Wall:            time.Since(start),
	}
	// Traffic is charged with the simulator's bit accounting.
	for i := 0; i < fr.cfg.N; i++ {
		st := &fr.stats[i]
		res.Messages += st.msgs
		res.ControlMessages += st.control
		res.Bits += st.bits
		res.MaxCommsPerRound = max(res.MaxCommsPerRound, int(st.maxComms))
		res.Rounds = max(res.Rounds, int(fr.roundOf[i].Load()))
	}
	res.MessagesPerNode = float64(res.Messages+res.ControlMessages) / float64(res.N)
	// With a stream, informed means "holds every still-active rumor": with the
	// whole stream injected and GC'd, every live node is trivially informed
	// and the stream converged.
	c := fr.census()
	res.Live, res.Informed = c.Live, c.Informed
	res.AllInformed = fr.converged(c)
	if fr.set != nil {
		snap := fr.set.Snapshot()
		res.RumorsInjected = snap.Injected
		res.RumorsConverged = snap.Converged
		res.RumorsExpired = snap.Expired
		res.RumorsActive = snap.Active
		res.LostInjects = snap.Lost
		res.InjectionStalls = fr.stalls
		res.RumorsReseeded = fr.reseeded
	}
	if ct, ok := fr.tr.(*ChannelTransport); ok {
		res.Drops = ct.Drops()
	}
	if sf, ok := fr.tr.(SendFailureCounter); ok {
		res.SendFailures = sf.SendFailures()
		for i := 0; i < fr.cfg.N; i++ {
			if c := sf.NodeSendFailures(i); c > 0 {
				if res.NodeSendFailures == nil {
					res.NodeSendFailures = make(map[int]int64)
				}
				res.NodeSendFailures[i] = c
			}
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}

// stop halts every node and wakes all waiters, the monitor included.
func (fr *FreeRun) stop() {
	fr.mu.Lock()
	fr.stopped.Store(true)
	fr.cond.Broadcast()
	fr.mu.Unlock()
	fr.signal()
}

// signal wakes the monitor for one more pass; wakes that arrive while one is
// pending merge into it.
func (fr *FreeRun) signal() {
	select {
	case fr.wake <- struct{}{}:
	default:
	}
}

// pass runs one monitor pass: it maintains the frontier, fires timeline
// events, and detects convergence and natural termination. The monitor is the
// only writer of minRound, membership and registration.
func (fr *FreeRun) pass() {
	c := fr.census()

	// Fire every event the frontier has reached: an event at round r fires
	// once no live node is still below round r-1 — the closest free-running
	// analogue of "at the start of round r".
	for fr.nextEv < len(fr.events) && fr.events[fr.nextEv].EventRound() <= c.Frontier+1 {
		if err := fr.events[fr.nextEv].Apply(frTarget{fr, int64(c.Frontier)}); err != nil {
			fr.ignored++
		}
		fr.nextEv++
		c = fr.census()
	}
	frontier := int64(c.Frontier)

	// Publish the frontier and wake skew waiters. The ring slots of the rounds
	// it passed count rounds len(ended) later from here on: no node can be
	// finishing those yet, as nodes stay within MaxSkew of it.
	old := fr.minRound.Load()
	advanced := frontier != old
	if advanced {
		k := int64(len(fr.ended))
		for r := max(old+1, frontier-k+1); r <= frontier; r++ {
			fr.ended[r%k].Store(0)
		}
		fr.mu.Lock()
		fr.minRound.Store(frontier)
		fr.cond.Broadcast()
		fr.mu.Unlock()
	}

	if fr.set != nil {
		fr.passStream(frontier)
	}

	if advanced && fr.cfg.OnFrontier != nil {
		fr.cfg.OnFrontier(c)
	}
	converged := fr.converged(c)
	if converged && fr.completionAt == 0 {
		fr.completionAt = max(frontier, 1)
	}
	// The run ends once it converged with the whole timeline fired, or at the
	// budget: every live node spent it (or nobody is left), so the frontier
	// cannot advance and an event still pending, beyond frontier+1, can never
	// fire. Stopping there keeps a timeline scheduled past the budget from
	// hanging the run; the leftovers are reported as UnfiredEvents, the
	// free-running analogue of the sim harness's "event(s) never fired" error.
	if converged && fr.nextEv == len(fr.events) || c.Frontier >= fr.cfg.Rounds {
		fr.stop()
	}
}

// census is a monitor pass's one scan of the population — the view the
// frontier callback, convergence detection and the final report all read: how
// many nodes are live, how many of those are informed, the frontier (the
// minimum local round among them; with nobody alive it parks at the budget so
// remaining events still fire) and the furthest local clock among them.
func (fr *FreeRun) census() FrontierInfo {
	c := FrontierInfo{Frontier: fr.cfg.Rounds}
	for k, w := range fr.net.Live() {
		for ; w != 0; w &= w - 1 {
			i := k<<6 + bits.TrailingZeros64(w)
			r := int(fr.roundOf[i].Load())
			c.Frontier, c.MaxRound = min(c.Frontier, r), max(c.MaxRound, r)
			c.Live++
			if fr.holdingsOf(i).informed() {
				c.Informed++
			}
		}
	}
	return c
}

// holdingsOf returns node i's side of the holdings seam.
func (fr *FreeRun) holdingsOf(i int) holdings {
	if fr.set != nil {
		return &fr.wide[i]
	}
	return &fr.mask[i]
}

// converged reports that every live node holds every rumor and no more are
// coming, so the population has converged for good: some rumor was injected
// (bitmask mode), or the whole stream was injected and reclaimed (stream mode
// — with nothing active every live node is trivially informed).
func (fr *FreeRun) converged(c FrontierInfo) bool {
	if fr.set != nil {
		return c.Live > 0 && fr.injectNext == fr.stream.Total && fr.set.Active() == 0
	}
	return trace.Converged(c.Live, c.Informed) && fr.registered.Load() != 0
}

// passStream is the rumor-stream part of a monitor pass: garbage-collect
// converged rumors, seed again the ones every holder of which crashed,
// advance the injection schedule under window backpressure, and publish the
// stream telemetry.
func (fr *FreeRun) passStream(frontier int64) {
	// GC first: the AND-scan over live holdings rows is the race-free
	// convergence authority, here as in the scenario driver. Retiring before
	// injecting is what lets a full window drain within the same pass.
	scan := fr.set.ScanConverged(fr.scanBuf[:0], func(i int) bool { return !fr.net.IsFailed(i) })
	fr.scanBuf = scan[:0]
	if len(scan) > 0 {
		fr.set.Retire(scan...)
	}
	// A rumor no live node holds cannot spread or converge: its holders all
	// crashed (frames they sent before crashing may still rescue it, and a
	// second seed changes nothing then). The stream seeds it again at a live
	// node, or its slot would wedge the window and the stream never drain.
	fr.orphanBuf = fr.set.Orphans(fr.orphanBuf[:0])
	for _, id := range fr.orphanBuf {
		node := fr.pickInjectNode(int(id))
		if node < 0 {
			break // nobody alive to seed; retry next pass
		}
		if err := fr.set.Inject(node, id); err != nil {
			break // unreachable: the rumor holds its slot
		}
		fr.reseeded++
	}

	// Inject up to the frontier-proportional target. A full window stalls the
	// schedule — bounded memory beats punctual injection — and the stall is
	// observable (report counter + telemetry gauge).
	target := min(max(int(fr.stream.Rate*float64(frontier+1)), 1), fr.stream.Total)
	stalled := int64(0)
	for fr.injectNext < target {
		node := fr.pickInjectNode(fr.injectNext)
		if node < 0 {
			break // nobody alive to seed; retry next pass
		}
		if err := fr.set.Inject(node, rumorset.ID(fr.injectNext)); err != nil {
			stalled = 1
			fr.stalls++
			break
		}
		fr.injectNext++
	}
	if fr.tel != nil && fr.tel.rumorsActive != nil {
		snap := fr.set.Snapshot()
		fr.tel.rumorsActive.Set(int64(snap.Active))
		fr.tel.injectedTotal.Add(snap.Injected - fr.telLast.Injected)
		fr.tel.convergedTotal.Add(snap.Converged - fr.telLast.Converged)
		fr.tel.expiredTotal.Add(snap.Expired - fr.telLast.Expired)
		fr.tel.stalled.Set(stalled)
		fr.telLast = snap
	}
}

// pickInjectNode picks the injection site for stream rumor k: the first live
// node at or after k mod N, or -1 when nobody is alive. Seeding only live
// nodes keeps a crash-heavy timeline from wedging the window with rumors
// whose sole holder is dead.
func (fr *FreeRun) pickInjectNode(k int) int {
	start := k % fr.cfg.N
	for off := 0; off < fr.cfg.N; off++ {
		if i := (start + off) % fr.cfg.N; !fr.net.IsFailed(i) {
			return i
		}
	}
	return -1
}

// frTarget is the scenario.Target the monitor applies each event to, at the
// frontier it fired at. An Apply error, or Loss on a transport that cannot
// inject loss, counts as an ignored event.
type frTarget struct {
	*FreeRun
	frontier int64
}

// Fail and Revive ignore out-of-range indexes. A revived node rejoins
// uninformed right after the frontier, with nothing queued: what arrived
// while it was dead never reached it.
func (t frTarget) Fail(nodes ...int) {
	for _, i := range nodes {
		if i >= 0 && i < t.cfg.N && !t.net.IsFailed(i) {
			t.net.Fail(i)
			if t.set != nil {
				t.set.Fail(i)
			}
		}
	}
}

func (t frTarget) Revive(nodes ...int) {
	t.mu.Lock()
	for _, i := range nodes {
		if i >= 0 && i < t.cfg.N && t.net.IsFailed(i) {
			if t.set != nil {
				t.set.Revive(i)
			} else {
				t.mask[i].held.Store(0)
			}
			t.tr.Mailbox(i).TryDrain(nil)
			t.roundOf[i].Store(t.frontier)
			t.net.Revive(i)
		}
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Inject seeds a bitmask-mode rumor. NewFreeRun validates the timeline and
// stream mode rejects inject events, so the error is defense in depth.
func (t frTarget) Inject(node int, r phonecall.RumorID) error {
	if t.set != nil || node < 0 || node >= t.cfg.N || r >= phonecall.MaxRumors {
		return fmt.Errorf("live: cannot inject rumor %d at node %d", r, node)
	}
	if t.registered.Load()&(1<<r) == 0 {
		t.nInformed.Store(0) // before the set grows: no node counts low
	}
	t.registered.Or(1 << r)
	if t.net.IsFailed(node) {
		// Held until JoinAt restarts the node uninformed: the tracker's
		// lost-inject rule.
		t.lost++
	}
	t.mask[node].held.Or(1 << r)
	return nil
}

// SetLoss retunes the channel mesh; no other transport can inject loss.
func (t frTarget) SetLoss(rate float64, seed uint64) {
	if ct, ok := t.tr.(*ChannelTransport); ok {
		ct.SetLoss(rate, seed)
	} else {
		t.ignored++
	}
}

// SetBehavior takes effect at the node's next round.
func (t frTarget) SetBehavior(node int, b phonecall.Behavior) {
	if node >= 0 && node < t.cfg.N {
		t.behav[node].Store(&frBehavior{b: b})
	}
}

func (t frTarget) PeerSelector() phonecall.PeerSelector { return t.net.PeerSelector() }

// Held and Registered expose the mask slab to CorruptAt.
func (t frTarget) Held(node int) uint64 { return t.mask[node].held.Load() }
func (t frTarget) Registered() uint64   { return t.registered.Load() }

// wait parks node i before its round r while the node is dead, past its
// budget or more than MaxSkew rounds ahead of the frontier. It returns true
// when the round may run, and false on stop or when a revive moved roundOf
// off r-1: the node then rejoins where the revive put it.
func (fr *FreeRun) wait(i, r int) bool {
	parked := func() bool {
		return fr.net.IsFailed(i) || r > fr.cfg.Rounds || int64(r)-fr.minRound.Load() > int64(fr.cfg.MaxSkew)
	}
	if parked() {
		fr.mu.Lock()
		for parked() && !fr.stopped.Load() && fr.roundOf[i].Load() == int64(r-1) {
			fr.cond.Wait()
		}
		fr.mu.Unlock()
	}
	return !fr.stopped.Load() && fr.roundOf[i].Load() == int64(r-1)
}

// finished follows node i's recorded round r and wakes the monitor when a
// pass may read something new: (a) the node is the last live one to finish r;
// (b) on the mask path, it is the last live one to become informed of the
// registered set, seen being the set it last counted itself informed of; (c)
// on a stream, r's finishers crossed a quarter of the live nodes, so the GC
// runs four times a round.
func (fr *FreeRun) finished(i, r int, seen *uint64) {
	c := fr.ended[r%len(fr.ended)].Add(1)
	live := int64(fr.net.LiveCount())
	if c >= live || fr.set != nil && 4*c/live != 4*(c-1)/live {
		fr.signal()
	}
	if reg := fr.registered.Load(); fr.set == nil && reg != *seen && fr.mask[i].held.Load()&reg == reg {
		*seen = reg
		if fr.nInformed.Add(1) >= live {
			fr.signal()
		}
	}
}

// nodeLoop is one node's free-running event loop.
func (fr *FreeRun) nodeLoop(i int) {
	defer fr.wg.Done()
	// Field by field, not a composite literal: the literal built the node in
	// a second stack temporary, and a node carries its spares inline, so that
	// copy doubled nodeLoop's frame and pushed goroutine stacks up.
	var nd node
	nd.i, nd.algo, nd.net, nd.tr = i, fr.cfg.Algorithm, fr.net, fr.tr
	nd.h, nd.behav, nd.st = fr.holdingsOf(i), &fr.behav[i], &fr.stats[i]
	if fr.tel != nil {
		nd.telMsgs, nd.telBits = fr.tel.msgs, fr.tel.bitsSent
	}
	drain := fr.drains[i*mailboxSlots : i*mailboxSlots : (i+1)*mailboxSlots]
	per := firstSpares * fr.spareLen
	nd.spare.seed(fr.firstFrames[i*per:(i+1)*per], fr.spareLen)
	var seen uint64
	for r := 1; ; r++ {
		for !fr.wait(i, r) {
			if fr.stopped.Load() {
				return
			}
			seen, r = 0, int(fr.roundOf[i].Load())+1
		}
		drain, _ = nd.step(r, drain)
		// A revive during the step (the goroutine slept through its own crash)
		// moved roundOf: the round is not recorded, and the next wait rejoins.
		if fr.roundOf[i].CompareAndSwap(int64(r-1), int64(r)) {
			fr.finished(i, r, &seen)
		}
	}
}
