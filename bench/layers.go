//go:build layers

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/live"
	"repro/internal/membership"
	"repro/internal/phonecall"
	"repro/internal/policy"
	"repro/internal/rumorset"
	"repro/internal/scenario"
)

// The layer drivers time calls into each layer's public functions with
// inputs shaped like the workload being traced. They import
// repro/internal/..., which is why they sit behind the build tag `layers`: a
// change that deletes a layer's API breaks only the traced run, visibly, and
// never the timed path or `go build ./...`. Iteration counts are fixed, so a
// driver does the same work on every run.

const layersBuilt = true

// drivers collects the layer rows of one traced run.
type drivers struct {
	tr *tracer
	m  map[string]metric
}

// timeIt runs fn, which performs ops operations of the named layer call, and
// records one span carrying ns/op and allocs/op. It returns both.
func (d *drivers) timeIt(name, layer string, ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	nsPerOp = float64(end.Sub(start).Nanoseconds()) / float64(ops)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	d.tr.add(0, d.tr.newOp(), name, layer, start, end, map[string]float64{
		"ops":           float64(ops),
		"ns_per_op":     nsPerOp,
		"allocs_per_op": allocsPerOp,
		"bytes_per_op":  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
	})
	return nsPerOp, allocsPerOp
}

func (d *drivers) set(name string, v float64) { d.m[name] = metric{v, perLayerUnit(name)} }

// layerMetrics runs every layer driver and returns its rows. A driver that
// cannot run fails the traced run.
func layerMetrics(tr *tracer, w *workload) (map[string]metric, error) {
	d := &drivers{tr: tr, m: map[string]metric{}}
	for _, run := range []func(*workload) error{
		d.phonecall, d.rumorset, d.narrow, d.policy, d.liveChannel, d.liveLockStep, d.liveUDP, d.membership,
	} {
		if err := run(w); err != nil {
			return nil, fmt.Errorf("layer driver: %w", err)
		}
	}
	return d.m, nil
}

var layerSink int

// phonecall times the round engine at the workload's n: construction, the
// stateless contact hash, and push and exchange rounds in which every node
// initiates.
func (d *drivers) phonecall(w *workload) error {
	n := w.n
	var net *phonecall.Network
	var err error
	const builds = 3
	ns, _ := d.timeIt("phonecall.New", "phonecall", builds, func() {
		for i := 0; i < builds && err == nil; i++ {
			net, err = phonecall.New(phonecall.Config{N: n, Seed: uint64(i + 1), Workers: runtime.GOMAXPROCS(0)})
		}
	})
	if err != nil {
		return err
	}
	d.set("phonecall.new_ms", ns/1e6)

	const draws = 1 << 22
	ns, _ = d.timeIt("phonecall.RandomPeer", "phonecall", draws, func() {
		for i := 0; i < draws; i++ {
			layerSink += phonecall.RandomPeer(n, 1, 1+i/n, i%n)
		}
	})
	d.set("phonecall.random_peer_ns", ns)

	// At least 2M node-rounds per kind, and never fewer than five rounds.
	rounds := max(5, (2<<20)/n)
	msg := phonecall.Message{Tag: 1, Rumor: true}
	push := func(int) phonecall.Intent { return phonecall.PushIntent(phonecall.RandomTarget(), msg) }
	exchange := func(int) phonecall.Intent { return phonecall.ExchangeIntent(phonecall.RandomTarget(), msg) }
	respond := func(int) (phonecall.Message, bool) { return msg, true }
	deliver := func(_ int, inbox []phonecall.Message) { layerSink += len(inbox) }
	for i := 0; i < 2; i++ { // reach the engine's allocation-free steady state
		net.ExecRound(push, nil, deliver)
		net.ExecRound(exchange, respond, deliver)
	}
	ns, allocs := d.timeIt("Network.ExecRound/push", "phonecall", rounds, func() {
		for i := 0; i < rounds; i++ {
			net.ExecRound(push, nil, deliver)
		}
	})
	d.set("phonecall.exec_round_push_ns_per_node", ns/float64(n))
	d.set("phonecall.exec_round_allocs_per_round", allocs)
	ns, _ = d.timeIt("Network.ExecRound/exchange", "phonecall", rounds, func() {
		for i := 0; i < rounds; i++ {
			net.ExecRound(exchange, respond, deliver)
		}
	})
	d.set("phonecall.exec_round_exchange_ns_per_node", ns/float64(n))

	// The narrow holdings representation: one MarkSet of 8 rumors per node.
	tracker := phonecall.NewRumorTracker(net)
	for r := 0; r < 8; r++ {
		if err := tracker.Register(phonecall.RumorID(r)); err != nil {
			return err
		}
	}
	ns, _ = d.timeIt("RumorTracker.MarkSet", "phonecall", n, func() {
		for i := 0; i < n; i++ {
			tracker.MarkSet(i, 0xff)
		}
	})
	d.set("phonecall.tracker_mark_set_ns", ns)

	// The same 8-rumor marks through the wide representation.
	set, err := rumorset.New(n, 8)
	if err != nil {
		return err
	}
	ids := make([]rumorset.ID, 8)
	for r := range ids {
		ids[r] = rumorset.ID(r)
		if err := set.Register(ids[r]); err != nil {
			return err
		}
	}
	ns, _ = d.timeIt("Set.MarkIDs/r8", "rumorset", 8*n, func() {
		for i := 0; i < n; i++ {
			layerSink += set.MarkIDs(i, ids)
		}
	})
	d.set("rumorset.mark_ids_ns_per_id_r8", ns)
	return nil
}

// rumorset times the wide holdings layer with the workload's node count and
// window (sim-scenario-many's 16 384 × 1 024 when the workload has none):
// every node merges every active rumor in 32-ID summaries, reads its holdings
// back, the monitor scans for convergence and retires, and summaries cross
// the wire codec.
func (d *drivers) rumorset(w *workload) error {
	nodes, window := min(w.n, 16_384), 1024
	switch {
	case w.streamWindow > 0:
		window = w.streamWindow
	case w.window > 0:
		window = w.window
	}
	set, err := rumorset.New(nodes, window)
	if err != nil {
		return err
	}
	// Registration order is scrambled (7919 is prime, so the stride permutes
	// any window it does not divide): slot order differs from ID order, as it
	// does once a stream has recycled slots.
	const stride = 7919
	sorted := make([]rumorset.ID, window)
	for i := range sorted {
		sorted[i] = rumorset.ID(i)
	}
	register := func() error {
		for i := 0; i < window; i++ {
			if err := set.Register(rumorset.ID(i * stride % window)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := register(); err != nil {
		return err
	}
	const batch = 32
	ns, _ := d.timeIt("Set.MarkIDs", "rumorset", nodes*window, func() {
		for from := 0; from < window; from += batch {
			ids := sorted[from:min(from+batch, window)]
			for node := 0; node < nodes; node++ {
				layerSink += set.MarkIDs(node, ids)
			}
		}
	})
	d.set("rumorset.mark_ids_ns_per_id", ns)

	held := make([]rumorset.ID, 0, window)
	ns, _ = d.timeIt("Set.AppendHeld", "rumorset", nodes*window, func() {
		for node := 0; node < nodes; node++ {
			held = set.AppendHeld(held[:0], node)
		}
	})
	if len(held) != window {
		return fmt.Errorf("rumorset driver: node holds %d of %d rumors", len(held), window)
	}
	d.set("rumorset.append_held_ns_per_id", ns)

	const scans = 20
	allLive := func(int) bool { return true }
	var converged []rumorset.ID
	ns, _ = d.timeIt("Set.ScanConverged", "rumorset", scans, func() {
		for i := 0; i < scans; i++ {
			converged = set.ScanConverged(converged[:0], allLive)
		}
	})
	if len(converged) != window {
		return fmt.Errorf("rumorset driver: scan found %d of %d rumors converged", len(converged), window)
	}
	d.set("rumorset.scan_converged_us", ns/1e3)

	const retires = 10
	var retireNs float64
	for i := 0; i < retires; i++ {
		ns, _ := d.timeIt("Set.Retire", "rumorset", window, func() { set.Retire(sorted...) })
		retireNs += ns / retires
		if err := register(); err != nil {
			return err
		}
	}
	d.set("rumorset.retire_ns_per_id", retireNs)

	reps := max(1, (4<<20)/window)
	var wire []byte
	ns, _ = d.timeIt("AppendSummary", "rumorset", reps*window, func() {
		for i := 0; i < reps; i++ {
			wire = rumorset.AppendSummary(wire[:0], sorted)
		}
	})
	d.set("rumorset.append_summary_ns_per_id", ns)
	var decodeErr error
	ns, _ = d.timeIt("DecodeSummary", "rumorset", reps*window, func() {
		for i := 0; i < reps && decodeErr == nil; i++ {
			held, _, decodeErr = rumorset.DecodeSummary(held[:0], wire)
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	d.set("rumorset.decode_summary_ns_per_id", ns)
	return nil
}

// narrow times the simulator's narrow scenario path — 8 rumors in the 64-bit
// tracker — which no end-to-end workload covers: push-pull at n = 100 000.
func (d *drivers) narrow(*workload) error {
	const n, rounds = 100_000, 30
	sc := scenario.Scenario{Name: "bench narrow", N: n, Rounds: rounds, Algorithm: scenario.AlgoPushPull}
	for r := 0; r < 8; r++ {
		sc.Events = append(sc.Events, scenario.InjectRumor{At: 1 + r, Node: r * 7919 % n, Rumor: phonecall.RumorID(r)})
	}
	var err error
	ns, _ := d.timeIt("scenario.Run/narrow", "scenario", n*rounds, func() {
		var res scenario.Result
		if res, err = scenario.Run(context.Background(), sc, scenario.Config{Seed: 1}); err == nil && res.MinLiveFraction() < 1 {
			err = fmt.Errorf("narrow scenario driver informed only %.3f of live nodes", res.MinLiveFraction())
		}
	})
	if err != nil {
		return err
	}
	d.set("scenario.narrow_ns_per_node_round", ns)
	return nil
}

// policy times sim-scenario-many's selector: compilation and one weighted
// peer selection over the 8-zone WAN/LAN topology.
func (d *drivers) policy(w *workload) error {
	n := min(w.n, 16_384)
	tab, err := policy.WanLanTable(n, 8)
	if err != nil {
		return err
	}
	pol := &policy.Policy{Weights: policy.Weights{SameZone: 2, Capacity: 1, Latency: 0.5}}
	var sel *policy.Selector
	const compiles = 5
	ns, _ := d.timeIt("policy.Compile", "policy", compiles, func() {
		for i := 0; i < compiles && err == nil; i++ {
			sel, err = policy.Compile(n, uint64(i+1), tab, pol)
		}
	})
	if err != nil {
		return err
	}
	d.set("policy.compile_ms", ns/1e6)
	const selects = 1 << 21
	ns, allocs := d.timeIt("Selector.SelectPeer", "policy", selects, func() {
		for i := 0; i < selects; i++ {
			peer, _ := sel.SelectPeer(i/n+1, i%n)
			layerSink += peer
		}
	})
	d.set("policy.select_peer_ns", ns)
	d.set("policy.select_peer_allocs", allocs)
	return nil
}

// liveChannel times the channel mesh the two live workloads send through:
// every node sends one freshly allocated frame per round (as the runtimes
// do) and drains its mailbox.
func (d *drivers) liveChannel(w *workload) error {
	n := min(w.n, 4096)
	tr, err := live.NewChannelTransport(n, live.ChannelConfig{})
	if err != nil {
		return err
	}
	defer tr.Close()
	rounds := max(1, (1<<19)/n)
	var into [][]byte
	drained := 0
	ns, allocs := d.timeIt("ChannelTransport.Send+Mailbox.TryDrain", "live", n*rounds, func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < n; i++ {
				tr.Send(i, (i*7+r+1)%n, make([]byte, 24))
			}
			for i := 0; i < n; i++ {
				into = tr.Mailbox(i).TryDrain(into[:0])
				drained += len(into)
			}
		}
	})
	if drained != n*rounds {
		return fmt.Errorf("channel driver drained %d of %d frames", drained, n*rounds)
	}
	d.set("live.chan_send_drain_ns_per_frame", ns)
	d.set("live.chan_send_drain_allocs_per_frame", allocs)
	return nil
}

// liveLockStep times barrier-synchronized push rounds on the
// goroutine-per-node runtime at n = 4 096; no end-to-end workload runs it.
func (d *drivers) liveLockStep(*workload) error {
	const n, rounds = 4096, 20
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 1})
	if err != nil {
		return err
	}
	ls, err := live.NewLockStep(net, nil)
	if err != nil {
		return err
	}
	defer ls.Close()
	msg := phonecall.Message{Tag: 1, Rumor: true}
	push := func(int) phonecall.Intent { return phonecall.PushIntent(phonecall.RandomTarget(), msg) }
	deliver := func(_ int, inbox []phonecall.Message) {}
	net.ExecRound(push, nil, deliver)
	ns, _ := d.timeIt("LockStep.ExecNetworkRound", "live", n*rounds, func() {
		for r := 0; r < rounds; r++ {
			net.ExecRound(push, nil, deliver)
		}
	})
	if err := ls.Err(); err != nil {
		return err
	}
	d.set("live.lockstep_round_us_per_node", ns/1e3)
	return nil
}

// liveUDP times the UDP transport over loopback sockets of this process: a
// ring of 16 endpoints, each frame sent and then drained by its receiver.
// Loopback is not a network; the row tracks the codec-to-socket path only.
func (d *drivers) liveUDP(*workload) error {
	const n, frames = 16, 4096
	tr, err := live.NewUDPTransport(n)
	if err != nil {
		return err
	}
	defer tr.Close()
	var into [][]byte
	received := 0
	ns, _ := d.timeIt("UDPTransport.Send+Mailbox.TryDrain", "live", frames, func() {
		for f := 0; f < frames; f++ {
			from := f % n
			to := (from + 1) % n
			tr.Send(from, to, make([]byte, 24))
			// Delivery is asynchronous and may drop under buffer pressure.
			mb := tr.Mailbox(to)
			select {
			case <-mb.Notify():
			case <-time.After(100 * time.Millisecond):
			}
			into = mb.TryDrain(into[:0])
			received += len(into)
		}
		for i := 0; i < n; i++ { // frames that arrived after their wake-up
			into = tr.Mailbox(i).TryDrain(into[:0])
			received += len(into)
		}
	})
	if received < frames*9/10 {
		return fmt.Errorf("udp driver received %d of %d loopback frames", received, frames)
	}
	d.set("live.udp_send_drain_ns_per_frame", ns)
	return nil
}

// membership times the discovery plane: the routing table's k-nearest read
// and LRU update, the RPC codec, and one PING/PONG round trip over loopback
// UDP. No end-to-end workload depends on it.
func (d *drivers) membership(*workload) error {
	self := membership.ID(0x0123_4567_89ab_cdef)
	tab := membership.NewTable(self, membership.DefaultK)
	for bi := 4; bi < 64; bi++ {
		for lo := uint64(0); lo < 8 && lo < 1<<uint(bi); lo++ {
			id := self ^ (1 << uint(bi)) ^ membership.ID(lo)
			tab.Update(membership.Contact{ID: id, Addr: fmt.Sprintf("10.0.%d.%d:4000", bi, lo)})
		}
	}
	contacts := tab.Contacts()
	if len(contacts) < 200 {
		return fmt.Errorf("membership driver table too small: %d contacts", len(contacts))
	}
	const lookups = 1 << 13
	ns, _ := d.timeIt("Table.Closest", "membership", lookups, func() {
		for i := 0; i < lookups; i++ {
			layerSink += len(tab.Closest(self^membership.ID(i*0x9e37_79b9), membership.DefaultK))
		}
	})
	d.set("membership.closest_ns", ns)
	const updates = 1 << 18
	ns, _ = d.timeIt("Table.Update", "membership", updates, func() {
		for i := 0; i < updates; i++ {
			tab.Update(contacts[i%len(contacts)])
		}
	})
	d.set("membership.update_ns", ns)

	frame := membership.Frame{
		Type: membership.TypeFoundNodes, MsgID: 42, From: contacts[0], Target: self,
		Contacts: contacts[:membership.DefaultK],
	}
	const trips = 1 << 15
	var wire []byte
	var err error
	ns, _ = d.timeIt("AppendFrame+DecodeFrame", "membership", trips, func() {
		for i := 0; i < trips && err == nil; i++ {
			wire = membership.AppendFrame(wire[:0], frame)
			_, err = membership.DecodeFrame(wire)
		}
	})
	if err != nil {
		return err
	}
	d.set("membership.codec_roundtrip_ns", ns)

	a, err := membership.New(membership.Config{Self: 1, RPCTimeout: time.Second})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := membership.New(membership.Config{Self: 2, RPCTimeout: time.Second})
	if err != nil {
		return err
	}
	defer b.Close()
	addr := b.Self().Addr
	const pings = 2048
	ns, _ = d.timeIt("Node.Ping", "membership", pings, func() {
		for i := 0; i < pings && err == nil; i++ {
			_, err = a.Ping(addr)
		}
	})
	if err != nil {
		return err
	}
	d.set("membership.ping_rtt_us", ns/1e3)
	return nil
}
