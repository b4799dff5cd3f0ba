package live

import "sync"

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
	// call; the sender must not reuse it. Frames to out-of-range targets and
	// frames sent after Close are dropped.
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

// Mailbox is a node's inbound frame queue: an unbounded, mutex-guarded slice
// with an edge-triggered notification channel. Receivers either poll with
// TryDrain (lock-step phases, free-running round loops) or block on Notify
// until something arrives.
type Mailbox struct {
	mu    sync.Mutex
	queue [][]byte

	notify chan struct{}
}

// newMailbox returns an empty mailbox.
func newMailbox() *Mailbox {
	return &Mailbox{notify: make(chan struct{}, 1)}
}

// Put appends a frame and signals the notification channel.
func (mb *Mailbox) Put(frame []byte) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, frame)
	mb.mu.Unlock()
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

// TryDrain appends every queued frame to into and returns the result; it
// never blocks. Passing a reused into[:0] keeps the receive path
// allocation-light.
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
// least once after any Put that found the queue being watched. Receivers must
// re-check TryDrain after a wakeup.
func (mb *Mailbox) Notify() <-chan struct{} { return mb.notify }
