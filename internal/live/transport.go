package live

import (
	"slices"
	"sync"

	"repro/internal/phonecall"
)

// Transport moves encoded frames (codec.go) between the runtime's nodes.
// Nodes are addressed by their dense index in [0, N). Send may be called
// concurrently, but only ever by the goroutine owning the `from` node — the
// per-sender serialization every implementation relies on for deterministic
// per-link packet sequencing. A transport may drop frames (loss injection,
// full sockets) but must never duplicate, corrupt or misroute them.
type Transport interface {
	// N is the number of endpoints.
	N() int
	// Send enqueues frame for node to. The transport owns the slice after the
	// call; the sender must not reuse it. Once the receiver drains the frame,
	// the slice is the receiver's: it may encode a later send of its own into
	// it. A transport therefore never delivers one slice twice, nor a slice
	// that shares bytes with another frame past its capacity. Frames to
	// out-of-range targets and frames sent after Close are dropped.
	Send(from, to int, frame []byte)
	// Mailbox returns node i's inbound queue.
	Mailbox(i int) *Mailbox
	// Synchronous reports whether a frame is guaranteed to sit in the
	// destination mailbox (or be dropped for good) by the time Send returns.
	// Lock-step barriers require a synchronous transport; free-running mode
	// works with any.
	Synchronous() bool
	// Close releases the transport's resources.
	Close() error
}

// SendFailureCounter is the optional transport capability of counting sends
// the OS refused (the UDP transport's WriteToUDP errors). The free-running
// report surfaces the counts so real loss is never silent.
type SendFailureCounter interface {
	SendFailures() int64
	NodeSendFailures(i int) int64
}

// mailboxSlots is the room a mailbox queue and a FreeRun node's drain list
// start with, carved from one run-sized slab: a node drains about one call and
// one response a round, so eight slots hold almost every round, and a burst
// past them spills to the heap. Four slots cost more bytes, not fewer: the
// queues that overflow them double to eight anyway (the sweep in DESIGN.md
// §8).
const mailboxSlots = 8

// Mailbox is a node's inbound frame queue: a mutex-guarded slice that starts
// as the node's mailboxSlots-long piece of its transport's queue slab and
// spills to the heap past it, with an edge-triggered notification channel
// made on first use. Receivers either poll with TryDrain (lock-step phases,
// free-running round loops) or block on Notify until something arrives.
type Mailbox struct {
	mu     sync.Mutex
	queue  [][]byte
	notify chan struct{} // nil until the first Notify
}

// newMailboxes returns n empty mailboxes whose queues are carved from one
// slab, each piece capped at its own mailboxSlots so a growing queue never
// appends into its neighbour's.
func newMailboxes(n int) []Mailbox {
	boxes := make([]Mailbox, n)
	slab := make([][]byte, n*mailboxSlots)
	for i := range boxes {
		boxes[i].queue = slab[i*mailboxSlots : i*mailboxSlots : (i+1)*mailboxSlots]
	}
	return boxes
}

// Put appends a frame and signals the notification channel, if one was made.
func (mb *Mailbox) Put(frame []byte) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, frame)
	ch := mb.notify
	mb.mu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// TryDrain appends every queued frame to into and returns the result; it
// never blocks. Passing a reused into[:0] with room for a round's frames (a
// FreeRun node's drain list is carved like the queues) keeps the receive path
// allocation-free. The drained frames belong to the caller, which may
// overwrite them (the nodes recycle them into their own sends, see spares).
func (mb *Mailbox) TryDrain(into [][]byte) [][]byte {
	mb.mu.Lock()
	into = append(into, mb.queue...)
	for i := range mb.queue {
		mb.queue[i] = nil
	}
	mb.queue = mb.queue[:0]
	mb.mu.Unlock()
	return into
}

// Len returns the number of queued frames.
func (mb *Mailbox) Len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue)
}

// Notify returns the edge-triggered arrival channel: a receive succeeds at
// least once after any Put that found the queue being watched. The channel is
// made on the first call, already signalled when frames are queued, so frames
// Put before anyone watched are not missed. Receivers must re-check TryDrain
// after a wakeup.
func (mb *Mailbox) Notify() <-chan struct{} {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.notify == nil {
		mb.notify = make(chan struct{}, 1)
		if len(mb.queue) > 0 {
			mb.notify <- struct{}{}
		}
	}
	return mb.notify
}

// spareSlots bounds a node's spare frames. A node sends about as many frames
// as it drains, so a few slots absorb the round-to-round imbalance; an
// unbounded list would keep every burst's frames for the rest of the run.
const spareSlots = 8

// firstSpares is how many spares a FreeRun node starts a run with. Without
// them every node's first sends allocate fresh frames, and the bare pulls of
// the first rounds leave spares too small for a holdings frame.
const firstSpares = 4

// spares is one node's recycled send buffers: frames it drained and parsed
// (parsing copies everything out), kept to encode its own later sends into.
// A FreeRun node starts with firstSpares of them carved from a run slab
// (seed). It belongs to the node's goroutine and lives inline in the node,
// so a node holds at most spareSlots buffers whatever the traffic, and
// nothing is shared across nodes.
type spares struct {
	n    int
	bufs [spareSlots][]byte
}

// seed fills an empty set with firstSpares buffers of size bytes carved from
// slab, each capped at its own length so that recycling one never writes
// into its neighbour.
func (s *spares) seed(slab []byte, size int) {
	for k := 0; k < firstSpares; k++ {
		s.bufs[k] = slab[k*size : k*size : (k+1)*size]
	}
	s.n = firstSpares
}

// take returns an empty buffer with room for size bytes: the smallest spare
// that fits, or a fresh one when none does. A spare too small for this frame
// stays for a smaller one.
func (s *spares) take(size int) []byte {
	best := -1
	for k := 0; k < s.n; k++ {
		if c := cap(s.bufs[k]); c >= size && (best < 0 || c < cap(s.bufs[best])) {
			best = k
		}
	}
	if best < 0 {
		// Rounded up to the allocator's size class: the slack is free and
		// lets the buffer carry a slightly longer frame next time.
		return slices.Grow([]byte(nil), size)
	}
	b := s.bufs[best]
	s.n--
	s.bufs[best], s.bufs[s.n] = s.bufs[s.n], nil
	return b[:0]
}

// give keeps drained frames as spares and returns frames emptied for the next
// drain. A full set trades its smallest spare for a larger frame, so the
// spares follow the sizes the node sends now rather than stay stuck at the
// sizes of an earlier phase.
func (s *spares) give(frames [][]byte) [][]byte {
	for _, f := range frames {
		if s.n < spareSlots {
			s.bufs[s.n] = f
			s.n++
			continue
		}
		small := 0
		for k := 1; k < spareSlots; k++ {
			if cap(s.bufs[k]) < cap(s.bufs[small]) {
				small = k
			}
		}
		if cap(f) > cap(s.bufs[small]) {
			s.bufs[small] = f
		}
	}
	return frames[:0]
}

// callFrame encodes a call (appendCallFrame) into a spare.
func (s *spares) callFrame(round, src int, hasPayload, wantsPull bool, m *phonecall.Message) []byte {
	size := headerLen(round, src)
	if hasPayload {
		size += messageLen(m)
	}
	return appendCallFrame(s.take(size), round, src, hasPayload, wantsPull, m)
}

// respFrame encodes a pull response (appendRespFrame) into a spare.
func (s *spares) respFrame(round, src int, m *phonecall.Message) []byte {
	return appendRespFrame(s.take(headerLen(round, src)+messageLen(m)), round, src, m)
}
