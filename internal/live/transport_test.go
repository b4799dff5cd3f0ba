package live

import (
	"sync"
	"testing"
	"time"
)

// ready reports whether a receive on ch would succeed now, consuming it.
func ready(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestMailboxNotify pins the lazily made notification channel to the
// edge-trigger contract: frames Put before the first Notify leave the new
// channel signalled, a Put after it signals, an empty drained box is not
// ready, and Put racing the channel's creation never loses a wake-up. It also
// checks that a queue growing past its slab piece spills to the heap without
// writing into its neighbour's piece.
func TestMailboxNotify(t *testing.T) {
	boxes := newMailboxes(2)
	box := &boxes[0]
	box.Put([]byte{1})
	box.Put([]byte{2})
	ch := box.Notify()
	if !ready(ch) {
		t.Fatal("frames put before the first Notify left the channel unsignalled")
	}
	if got := box.TryDrain(nil); len(got) != 2 {
		t.Fatalf("drained %d frames, want 2", len(got))
	}
	if ready(ch) {
		t.Fatal("a drained, empty box is ready")
	}
	box.Put([]byte{3})
	if box.Notify() != ch || !ready(ch) {
		t.Fatal("a Put after Notify did not signal the same channel")
	}
	box.TryDrain(nil)

	if idle := &boxes[1]; ready(idle.Notify()) {
		t.Fatal("a box that never received is ready")
	}
	for k := 0; k <= mailboxSlots; k++ {
		box.Put([]byte{byte(k)})
	}
	if boxes[1].Len() != 0 {
		t.Fatalf("a burst past %d slots wrote into the next mailbox", mailboxSlots)
	}
	if got := box.TryDrain(nil); len(got) != mailboxSlots+1 || got[mailboxSlots][0] != mailboxSlots {
		t.Fatalf("drained %d frames after a spill, want %d in order", len(got), mailboxSlots+1)
	}

	// Senders race the channel's creation: every one asks for it too, and
	// the receiver must still see every frame through its wake-ups.
	const senders, each = 4, 200
	box = &newMailboxes(1)[0]
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				box.Put([]byte{byte(k)})
				if k%16 == 0 {
					box.Notify()
				}
			}
		}()
	}
	var into [][]byte
	for got := 0; got < senders*each; {
		select {
		case <-box.Notify():
		case <-time.After(10 * time.Second):
			t.Fatalf("no wake-up with %d of %d frames drained", got, senders*each)
		}
		into = box.TryDrain(into[:0])
		got += len(into)
	}
	wg.Wait()
}
