package live

import (
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ChannelConfig configures the in-process mailbox mesh.
type ChannelConfig struct {
	// Drop is the per-frame loss probability, decided by a deterministic hash
	// of (DropSeed, from, to, per-sender sequence number): the drop pattern is
	// a pure function of the seed and each link's send history, so single-run
	// loss behavior replays exactly. DropSeed defaults to nothing special —
	// zero is a valid seed.
	Drop     float64
	DropSeed uint64
	// Latency and Jitter delay delivery in real time: each frame arrives
	// after Latency plus a deterministically sampled fraction of Jitter
	// (hash of (DropSeed, from, to, sequence), apart from the drop stream).
	// A mesh with any delay is not Synchronous and therefore free-running only.
	Latency time.Duration
	Jitter  time.Duration
}

// lossParams is the atomically swappable drop configuration.
type lossParams struct {
	rate float64
	seed uint64
}

// ChannelTransport is the in-process transport: per-node mailboxes, direct
// synchronous delivery when no latency is configured, and seeded
// deterministic drop/latency/jitter injection per link.
type ChannelTransport struct {
	n      int
	cfg    ChannelConfig
	boxes  []Mailbox
	seq    []uint64 // per-sender frame counter; each slot owned by its sender goroutine
	loss   atomic.Pointer[lossParams]
	drops  atomic.Int64
	closed atomic.Bool
}

// NewChannelTransport builds a mesh of n mailboxes.
func NewChannelTransport(n int, cfg ChannelConfig) (*ChannelTransport, error) {
	if err := validateN(n); err != nil {
		return nil, err
	}
	tr := &ChannelTransport{
		n:     n,
		cfg:   cfg,
		boxes: newMailboxes(n),
		seq:   make([]uint64, n),
	}
	tr.loss.Store(&lossParams{rate: cfg.Drop, seed: cfg.DropSeed})
	return tr, nil
}

// N implements Transport.
func (tr *ChannelTransport) N() int { return tr.n }

// Mailbox implements Transport.
func (tr *ChannelTransport) Mailbox(i int) *Mailbox { return &tr.boxes[i] }

// Synchronous implements Transport: the mesh is synchronous exactly when no
// artificial delay is configured.
func (tr *ChannelTransport) Synchronous() bool {
	return tr.cfg.Latency == 0 && tr.cfg.Jitter == 0
}

// SetLoss changes the drop injection mid-run, for free-running Loss events:
// from the next frame on, every frame is independently dropped with
// probability rate. Safe to call while senders run.
func (tr *ChannelTransport) SetLoss(rate float64, seed uint64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	tr.loss.Store(&lossParams{rate: rate, seed: seed})
}

// Drops returns the number of frames dropped by loss injection so far.
func (tr *ChannelTransport) Drops() int64 { return tr.drops.Load() }

// Send implements Transport. The caller must be the goroutine owning from.
func (tr *ChannelTransport) Send(from, to int, frame []byte) {
	if tr.closed.Load() || to < 0 || to >= tr.n || from < 0 || from >= tr.n {
		return
	}
	seq := tr.seq[from]
	tr.seq[from] = seq + 1
	if lp := tr.loss.Load(); lp.rate > 0 {
		h := rng.Mix(lp.seed, 0xd207, uint64(from), uint64(to), seq)
		if rng.Unit(h) < lp.rate {
			tr.drops.Add(1)
			return
		}
	}
	delay := tr.cfg.Latency
	if tr.cfg.Jitter > 0 {
		h := rng.Mix(tr.cfg.DropSeed^0x717e4, 0x717e4, uint64(from), uint64(to), seq)
		delay += time.Duration(float64(tr.cfg.Jitter) * rng.Unit(h))
	}
	if delay <= 0 {
		tr.boxes[to].Put(frame)
		return
	}
	box := &tr.boxes[to]
	time.AfterFunc(delay, func() {
		if !tr.closed.Load() {
			box.Put(frame)
		}
	})
}

// Close implements Transport. Frames still in flight on delay timers are
// discarded.
func (tr *ChannelTransport) Close() error {
	tr.closed.Store(true)
	return nil
}
