package live

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync/atomic"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/scenario"
)

// The node step under a scripted transport: no goroutines, no monitor, no
// clock. Everything the step does is a function of (holdings, drained frames,
// round, seed), so every expectation below is exact and every failure replays.

// scriptTransport hands the node under test the frames a case scripted and
// records what the node sends.
type scriptTransport struct {
	n    int
	box  *Mailbox
	sent []sentFrame
}

type sentFrame struct {
	to  int
	raw []byte
}

func (s *scriptTransport) N() int                   { return s.n }
func (s *scriptTransport) Mailbox(int) *Mailbox     { return s.box }
func (s *scriptTransport) Synchronous() bool        { return true }
func (s *scriptTransport) Close() error             { return nil }
func (s *scriptTransport) Send(_, to int, f []byte) { s.sent = append(s.sent, sentFrame{to, f}) }

const (
	rigN     = 8
	rigSelf  = 2
	rigSeed  = 7
	rigRound = 5
)

// rumors is a set of rumor indexes as a bitmask: index k is mask bit k on the
// mask path and rumor ID 10*(k+1) on the rumor-set path.
type rumors uint64

func (s rumors) ids() []rumorset.ID {
	ids := []rumorset.ID{}
	for k := 0; k < 64; k++ {
		if s&(1<<k) != 0 {
			ids = append(ids, rumorset.ID(10*(k+1)))
		}
	}
	return ids
}

// summary is s as a summary frame carries it, with its encoded length.
func (s rumors) summary() (*rumorset.Summary, int) {
	var sum rumorset.Summary
	n := sum.SetIDs(s.ids())
	return &sum, n
}

// stepRig is one node wired to a scripted transport, on either side of the
// holdings seam.
type stepRig struct {
	wide bool
	net  *phonecall.Network
	tr   *scriptTransport
	nd   node
	st   frStats
	reg  atomic.Uint64
	mask maskHoldings
	set  *rumorset.Set
	row  setHoldings
}

func newStepRig(t *testing.T, algo scenario.Algorithm, wide bool, registered, held rumors) *stepRig {
	t.Helper()
	net, err := phonecall.New(phonecall.Config{N: rigN, Seed: rigSeed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rig := &stepRig{wide: wide, net: net, tr: &scriptTransport{n: rigN, box: &newMailboxes(1)[0]}}
	rig.nd = node{i: rigSelf, algo: algo, net: net, tr: rig.tr, st: &rig.st}
	if wide {
		if rig.set, err = rumorset.New(rigN, 8); err != nil {
			t.Fatal(err)
		}
		for _, id := range registered.ids() {
			if err := rig.set.Register(id); err != nil {
				t.Fatal(err)
			}
		}
		rig.set.MarkIDs(rigSelf, held.ids())
		rig.row = setHoldings{set: rig.set, node: rigSelf, net: net}
		rig.nd.h = &rig.row
	} else {
		rig.reg.Store(uint64(registered))
		rig.mask.reg, rig.mask.net = &rig.reg, net
		rig.mask.held.Store(uint64(held))
		rig.nd.h = &rig.mask
	}
	return rig
}

// held reads the node's holdings back as a rumor set.
func (rig *stepRig) held() rumors {
	if !rig.wide {
		return rumors(rig.mask.held.Load())
	}
	var s rumors
	for _, id := range rig.set.AppendHeld(nil, rigSelf) {
		s |= 1 << (int(id)/10 - 1)
	}
	return s
}

// bits is the charge of a message carrying s, stated independently of the
// seam: the payload-free overhead, the summary's bytes on the rumor-set path,
// one payload per rumor.
func (rig *stepRig) bits(s rumors) int64 {
	size := rig.net.MessageSize(phonecall.Message{Tag: phonecall.TagHoldings}) + bits.OnesCount64(uint64(s))*rig.net.PayloadBits()
	if rig.wide {
		_, n := s.summary()
		size += n * 8
	}
	return int64(size)
}

// call and resp encode the frames of this rig's flavor, for scripting inbound
// traffic and for stating the exact frames expected back.
func (rig *stepRig) call(round, src int, wantsPull bool, s rumors) []byte {
	if rig.wide {
		sum, _ := s.summary()
		return appendSummaryCallFrame(nil, round, src, wantsPull, sum)
	}
	m := phonecall.Message{Tag: phonecall.TagHoldings, Value: uint64(s), Rumor: true, Bits: int(rig.bits(s))}
	return appendCallFrame(nil, round, src, true, wantsPull, &m)
}

func (rig *stepRig) resp(round, src int, s rumors) []byte {
	if rig.wide {
		sum, _ := s.summary()
		return appendSummaryRespFrame(nil, round, src, sum)
	}
	m := phonecall.Message{Tag: phonecall.TagHoldings, Value: uint64(s), Rumor: true, Bits: int(rig.bits(s))}
	return appendRespFrame(nil, round, src, &m)
}

func barePull(round, src int) []byte { return appendCallFrame(nil, round, src, false, true, nil) }

// wantStep is everything one step is expected to do.
type wantStep struct {
	sent               []sentFrame
	msgs, control, bit int64
	held               rumors
	maxComms           int32
	needy              bool
}

func (rig *stepRig) check(t *testing.T, needy bool, want wantStep) {
	t.Helper()
	if len(rig.tr.sent) != len(want.sent) {
		t.Fatalf("sent %d frames, want %d: %x", len(rig.tr.sent), len(want.sent), rig.tr.sent)
	}
	for k, got := range rig.tr.sent {
		if got.to != want.sent[k].to || !bytes.Equal(got.raw, want.sent[k].raw) {
			t.Errorf("frame %d: to %d %x, want to %d %x", k, got.to, got.raw, want.sent[k].to, want.sent[k].raw)
		}
	}
	if rig.st.msgs != want.msgs || rig.st.control != want.control || rig.st.bits != want.bit {
		t.Errorf("charged msgs=%d control=%d bits=%d, want %d/%d/%d",
			rig.st.msgs, rig.st.control, rig.st.bits, want.msgs, want.control, want.bit)
	}
	if got := rig.held(); got != want.held {
		t.Errorf("holdings after %b, want %b", got, want.held)
	}
	if rig.st.maxComms != want.maxComms {
		t.Errorf("maxComms %d, want %d", rig.st.maxComms, want.maxComms)
	}
	if needy != want.needy {
		t.Errorf("linger evidence %v, want %v", needy, want.needy)
	}
}

// TestStepTable drives the step over every combination of protocol, seam
// side, holdings state and inbound frame. Two rumors are registered; the
// scripted peer is node 3.
func TestStepTable(t *testing.T) {
	const (
		registered rumors = 0b11
		peer              = 3
	)
	type call int
	const (
		silent call = iota
		pullOnly
		payload
		payloadAndPull
	)
	holdingsStates := []struct {
		name string
		held rumors
	}{{"empty", 0}, {"partial", 0b01}, {"complete", 0b11}}
	// The initiated call, by protocol and holdings state (same order as above).
	wantCall := map[scenario.Algorithm][3]call{
		scenario.AlgoPush:     {silent, payload, payload},
		scenario.AlgoPull:     {pullOnly, pullOnly, silent},
		scenario.AlgoPushPull: {pullOnly, payloadAndPull, payloadAndPull},
	}
	// Inbound frames: what the drain holds, what it carries, whether it is a
	// call (a communication), whether it pulls, and whether it is evidence of
	// a needy peer on the mask path / on either path.
	inbound := []struct {
		name              string
		frame             func(rig *stepRig) []byte
		carries           rumors
		isCall, pulls     bool
		partial, barePull bool
	}{
		{name: "none"},
		{name: "payload call", frame: func(rig *stepRig) []byte { return rig.call(4, peer, false, 0b10) },
			carries: 0b10, isCall: true, partial: true},
		{name: "bare pull", frame: func(*stepRig) []byte { return barePull(4, peer) },
			isCall: true, pulls: true, barePull: true},
		{name: "pull+payload", frame: func(rig *stepRig) []byte { return rig.call(4, peer, true, 0b10) },
			carries: 0b10, isCall: true, pulls: true, partial: true},
		{name: "response", frame: func(rig *stepRig) []byte { return rig.resp(4, peer, 0b11) }, carries: 0b11},
		{name: "garbage", frame: func(*stepRig) []byte { return []byte{99, 0, 1, 1} }},
	}

	for _, algo := range scenario.Algorithms() {
		for _, wide := range []bool{false, true} {
			for hs, state := range holdingsStates {
				for _, in := range inbound {
					name := fmt.Sprintf("%s/wide=%v/%s/%s", algo, wide, state.name, in.name)
					t.Run(name, func(t *testing.T) {
						rig := newStepRig(t, algo, wide, registered, state.held)
						if in.frame != nil {
							rig.tr.box.Put(in.frame(rig))
						}
						_, needy := rig.nd.step(rigRound, nil)

						var want wantStep
						contact, _ := rig.net.RandomContact(rigRound, rigSelf)
						switch wantCall[algo][hs] {
						case pullOnly:
							want.sent = append(want.sent, sentFrame{contact, barePull(rigRound, rigSelf)})
							want.control, want.bit = 1, int64(rig.net.ControlBits())
						case payload, payloadAndPull:
							pull := wantCall[algo][hs] == payloadAndPull
							want.sent = append(want.sent, sentFrame{contact, rig.call(rigRound, rigSelf, pull, state.held)})
							want.msgs, want.bit = 1, rig.bits(state.held)
						}
						want.maxComms = int32(len(want.sent))
						if in.isCall {
							want.maxComms++
						}
						want.held = state.held | in.carries
						if in.pulls && algo != scenario.AlgoPush && want.held != 0 {
							want.sent = append(want.sent, sentFrame{peer, rig.resp(rigRound, rigSelf, want.held)})
							want.msgs++
							want.bit += rig.bits(want.held)
						}
						want.needy = in.barePull || (in.partial && !wide)
						rig.check(t, needy, want)
					})
				}
			}
		}
	}
}

// TestStepAnswersAfterMerge: a puller that arrives in the drain before the
// payload that informs the node is still answered with the merged state, and
// every puller of the round gets the same single response.
func TestStepAnswersAfterMerge(t *testing.T) {
	for _, wide := range []bool{false, true} {
		rig := newStepRig(t, scenario.AlgoPushPull, wide, 0b11, 0)
		rig.tr.box.Put(barePull(4, 3))
		rig.tr.box.Put(rig.call(4, 4, false, 0b11))
		rig.tr.box.Put(barePull(4, 6))
		_, needy := rig.nd.step(rigRound, nil)

		contact, _ := rig.net.RandomContact(rigRound, rigSelf)
		rig.check(t, needy, wantStep{
			sent: []sentFrame{
				{contact, barePull(rigRound, rigSelf)},
				{3, rig.resp(rigRound, rigSelf, 0b11)},
				{6, rig.resp(rigRound, rigSelf, 0b11)},
			},
			msgs: 2, control: 1, bit: int64(rig.net.ControlBits()) + 2*rig.bits(0b11),
			held: 0b11, maxComms: 4, needy: true,
		})
	}
}

// countingBehavior records how often each rewrite ran and forges the response.
type countingBehavior struct {
	calls, responses int
	target           int
}

func (b *countingBehavior) RewriteCall(_, _, target int, c phonecall.Call, m phonecall.Message) (phonecall.Call, phonecall.Message) {
	b.calls++
	b.target = target
	return c, m
}

func (b *countingBehavior) RewriteResponse(_, _ int, m phonecall.Message, ok bool) (phonecall.Message, bool) {
	b.responses++
	m.Value = 0b01 // withhold rumor 1 from every puller
	m.Bits = 0     // let the engine's sizing charge the forged message
	return m, ok
}

// TestStepBehaviorSeam drives a behavior through the mask path: the call is
// rewritten with the resolved contact, and the response is rewritten once per
// round however many pullers it serves.
func TestStepBehaviorSeam(t *testing.T) {
	rig := newStepRig(t, scenario.AlgoPushPull, false, 0b11, 0b11)
	var cell atomic.Pointer[frBehavior]
	b := &countingBehavior{}
	cell.Store(&frBehavior{b: b})
	rig.nd.behav = &cell
	rig.tr.box.Put(barePull(4, 3))
	rig.tr.box.Put(barePull(4, 6))
	_, needy := rig.nd.step(rigRound, nil)

	contact, _ := rig.net.RandomContact(rigRound, rigSelf)
	if b.calls != 1 || b.responses != 1 || b.target != contact {
		t.Fatalf("behavior ran call×%d (target %d, want %d), response×%d; want once each",
			b.calls, b.target, contact, b.responses)
	}
	forged := phonecall.Message{Tag: phonecall.TagHoldings, Value: 0b01, Rumor: true}
	forgedBits := int64(rig.net.MessageSize(forged))
	rig.check(t, needy, wantStep{
		sent: []sentFrame{
			{contact, rig.call(rigRound, rigSelf, true, 0b11)},
			{3, appendRespFrame(nil, rigRound, rigSelf, &forged)},
			{6, appendRespFrame(nil, rigRound, rigSelf, &forged)},
		},
		msgs: 3, bit: rig.bits(0b11) + 2*forgedBits,
		held: 0b11, maxComms: 3, needy: true,
	})
}

// TestStepFollowsTheDecisionTable cross-checks the call the step puts on the
// wire against scenario.Algorithm.Call for every (algorithm, empty, complete)
// cell — the same table scenario's own test pins protocol.intent and
// wideProtocol.intent to, so the live and simulated rules cannot drift apart.
func TestStepFollowsTheDecisionTable(t *testing.T) {
	cells := []struct {
		registered, held rumors
	}{
		{0, 0},       // nothing registered: empty and complete
		{0b11, 0},    // empty
		{0b11, 0b01}, // neither
		{0b11, 0b11}, // complete
	}
	for _, algo := range scenario.Algorithms() {
		for _, wide := range []bool{false, true} {
			for _, c := range cells {
				rig := newStepRig(t, algo, wide, c.registered, c.held)
				rig.nd.step(rigRound, nil)
				got := phonecall.None
				if len(rig.tr.sent) > 0 {
					f, err := parseFrame(rig.tr.sent[0].raw)
					if err != nil {
						t.Fatal(err)
					}
					carries := f.hasPayload || f.hasSummary
					switch {
					case carries && f.wantsPull:
						got = phonecall.Exchange
					case carries:
						got = phonecall.Push
					default:
						got = phonecall.Pull
					}
				}
				call, _ := algo.Call(c.held == 0, c.held == c.registered)
				if want := call.Kind; got != want {
					t.Errorf("%s wide=%v registered=%b held=%b: step called %v, table says %v",
						algo, wide, c.registered, c.held, got, want)
				}
			}
		}
	}
}

// TestStepDoesNotAllocatePerRound pins the hot-path shape: once warm, a round
// allocates nothing — no boxing through the seam, no closure on the heap, and
// no frame: the call and the response are encoded into frames the node
// drained. Every round gets freshly built inbound frames, since the step may
// write into the ones it drained.
func TestStepDoesNotAllocatePerRound(t *testing.T) {
	for _, wide := range []bool{false, true} {
		rig := newStepRig(t, scenario.AlgoPushPull, wide, 0b11, 0b01)
		const rounds = 60 // the warm-up, AllocsPerRun's own warm-up and its 50 runs, with room
		inbound := make([][]byte, 0, 2*rounds)
		for k := 0; k < rounds; k++ {
			inbound = append(inbound, rig.call(4, 3, true, 0b10), rig.resp(4, 4, 0b11))
		}
		rig.tr.sent = make([]sentFrame, 0, 4)
		drain := make([][]byte, 0, 4)
		round := func() {
			rig.tr.sent = rig.tr.sent[:0]
			rig.tr.box.Put(inbound[0])
			rig.tr.box.Put(inbound[1])
			inbound = inbound[2:]
			drain, _ = rig.nd.step(rigRound, drain)
		}
		round() // warm the scratch buffers and the spares
		if avg := testing.AllocsPerRun(50, round); avg != 0 {
			t.Errorf("wide=%v: %.1f allocations per round, want 0 (the call and the response reuse drained frames)", wide, avg)
		}
		if rig.held() != 0b11 {
			t.Errorf("wide=%v: holdings %b after the rounds", wide, rig.held())
		}
	}
}

// TestSpares pins the spare set's rules: a send takes the smallest spare with
// room, a spare too small for a frame stays for a smaller one, and a full set
// keeps at most spareSlots buffers, trading its smallest for a larger frame.
func TestSpares(t *testing.T) {
	var s spares
	sized := func(caps ...int) [][]byte {
		var frames [][]byte
		for _, c := range caps {
			frames = append(frames, make([]byte, c))
		}
		return frames
	}
	if rest := s.give(sized(8, 32, 16)); len(rest) != 0 {
		t.Fatalf("give left %d frames in the drain list", len(rest))
	}
	if b := s.take(12); cap(b) != 16 || len(b) != 0 {
		t.Fatalf("take(12) returned len %d cap %d, want the empty 16-byte spare", len(b), cap(b))
	}
	if b := s.take(40); cap(b) < 40 || s.n != 2 {
		t.Fatalf("take(40) returned cap %d with %d spares left, want a fresh buffer and both spares kept", cap(b), s.n)
	}
	s.give(sized(24, 24, 24, 24, 24, 24, 24)) // 9 offered, 8 slots: the 8-byte spare goes
	if s.n != spareSlots {
		t.Fatalf("%d spares, want %d", s.n, spareSlots)
	}
	for k := 0; k < s.n; k++ {
		if cap(s.bufs[k]) == 8 {
			t.Fatal("a full set kept its smallest spare over a larger frame")
		}
	}
	s.give(sized(4)) // smaller than every spare: dropped
	for k := 0; k < s.n; k++ {
		if cap(s.bufs[k]) == 4 {
			t.Fatal("a full set took a frame smaller than its spares")
		}
	}
}
