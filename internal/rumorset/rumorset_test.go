package rumorset

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func newSet(t *testing.T, n, inflight int) *Set {
	t.Helper()
	s, err := New(n, inflight)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetRejectsBadShape(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Fatal("zero in-flight window accepted")
	}
}

// TestSetWindowBackpressure pins the ErrFull contract: the (cap+1)th distinct
// rumor is rejected with an errors.Is-able ErrFull, a re-registration of an
// active ID is not, and expiry frees exactly one slot.
func TestSetWindowBackpressure(t *testing.T) {
	s := newSet(t, 4, 3)
	for id := ID(10); id < 13; id++ {
		if err := s.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Register(10); err != nil {
		t.Fatalf("re-registering an active id: %v", err)
	}
	err := s.Register(13)
	if !errors.Is(err, ErrFull) {
		t.Fatalf("4th rumor in a 3-slot window: got %v, want ErrFull", err)
	}
	if err := s.Inject(0, 13); !errors.Is(err, ErrFull) {
		t.Fatalf("Inject past the window: got %v, want ErrFull", err)
	}
	s.Expire(11)
	if err := s.Register(13); err != nil {
		t.Fatalf("register after expiry freed a slot: %v", err)
	}
	if got := s.Active(); got != 3 {
		t.Fatalf("active = %d, want 3", got)
	}
}

// retireConverged is the engines' GC step, ScanConverged then Retire, with
// liveness read from the set's own failure marks. It returns how many rumors
// it retired.
func retireConverged(s *Set) int {
	ids := s.ScanConverged(nil, func(node int) bool { return !s.failed[node] })
	s.Retire(ids...)
	return len(ids)
}

// TestSetMarkAndConvergence drives one rumor to convergence through Mark and
// checks LiveInformed, the ScanConverged + Retire GC, and the counters.
func TestSetMarkAndConvergence(t *testing.T) {
	s := newSet(t, 5, 8)
	if err := s.Inject(2, 1000); err != nil {
		t.Fatal(err)
	}
	if !s.Has(2, 1000) || s.Has(3, 1000) {
		t.Fatal("inject didn't mark exactly the target node")
	}
	for node := 0; node < 5; node++ {
		s.Mark(node, 1000)
		s.Mark(node, 1000) // idempotent
	}
	if got := s.LiveInformed(1000); got != 5 {
		t.Fatalf("live-informed = %d, want 5", got)
	}
	if freed := retireConverged(s); freed != 1 {
		t.Fatalf("GC freed %d rumors, want 1", freed)
	}
	st := s.Snapshot()
	if st.Active != 0 || st.Injected != 1 || st.Converged != 1 || st.Expired != 1 {
		t.Fatalf("counters after convergence: %+v", st)
	}
	// After expiry the rumor is unknown again: queries are zero, marks inert.
	if s.Has(0, 1000) || s.LiveInformed(1000) != 0 {
		t.Fatal("expired rumor still queryable")
	}
	s.Mark(0, 1000)
	if s.Has(0, 1000) {
		t.Fatal("mark of an expired rumor recorded")
	}
}

// TestSetStaleIDAfterSlotReuse pins the ABA guard: a "stale frame" carrying
// an expired rumor's ID must not mark the rumor that reused its slot.
func TestSetStaleIDAfterSlotReuse(t *testing.T) {
	s := newSet(t, 3, 1) // single slot: guaranteed reuse
	if err := s.Inject(0, 7); err != nil {
		t.Fatal(err)
	}
	s.Mark(1, 7)
	s.Mark(2, 7)
	if retireConverged(s) != 1 {
		t.Fatal("rumor 7 should have converged")
	}
	if err := s.Inject(0, 8); err != nil {
		t.Fatal(err) // rumor 8 now occupies rumor 7's old slot
	}
	if fresh := s.MarkIDs(1, []ID{7}); fresh != 0 {
		t.Fatalf("stale summary for expired rumor 7 produced %d fresh marks", fresh)
	}
	if s.Has(1, 8) {
		t.Fatal("stale rumor-7 frame marked rumor 8 through the reused slot")
	}
}

// TestSetReinjectionOfConvergedID pins the re-injection epoch semantics: a
// converged-and-expired ID may be injected again and starts from scratch.
func TestSetReinjectionOfConvergedID(t *testing.T) {
	s := newSet(t, 3, 4)
	if err := s.Inject(0, 42); err != nil {
		t.Fatal(err)
	}
	s.Mark(1, 42)
	s.Mark(2, 42)
	if retireConverged(s) != 1 {
		t.Fatal("first epoch should converge")
	}
	if err := s.Inject(1, 42); err != nil {
		t.Fatalf("re-injecting a converged id: %v", err)
	}
	if got := s.LiveInformed(42); got != 1 {
		t.Fatalf("second epoch starts with live-informed %d, want 1", got)
	}
	if s.Has(0, 42) || s.Has(2, 42) {
		t.Fatal("second epoch inherited first-epoch holdings")
	}
	st := s.Snapshot()
	if st.Injected != 2 || st.Converged != 1 {
		t.Fatalf("counters across epochs: %+v", st)
	}
}

// TestSetChurn pins Fail/Revive semantics against the bitmask tracker's:
// failed nodes stop counting, revived nodes rejoin uninformed, and a lost
// inject (on a failed node) is counted.
func TestSetChurn(t *testing.T) {
	s := newSet(t, 4, 8)
	if err := s.Inject(0, 5); err != nil {
		t.Fatal(err)
	}
	s.Mark(1, 5)
	s.Fail(1)
	if got := s.LiveInformed(5); got != 1 {
		t.Fatalf("failed informed node still counted: %d", got)
	}
	s.Fail(1) // duplicate: no double-decrement
	if got := s.LiveInformed(5); got != 1 {
		t.Fatalf("duplicate Fail drifted the count: %d", got)
	}
	if err := s.Inject(1, 5); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Lost; got != 1 {
		t.Fatalf("inject on failed node not counted lost: %d", got)
	}
	s.Revive(1)
	if s.Has(1, 5) {
		t.Fatal("revived node kept its holdings")
	}
	if s.failed[1] {
		t.Fatal("revived node still failed")
	}
	// Convergence now requires all four nodes again (node 1 forgot).
	if retireConverged(s) != 0 {
		t.Fatal("converged with an uninformed node")
	}
	s.Fail(-1)
	s.Revive(99) // out-of-range churn ignored
}

// TestSetOrphans: a rumor whose every holder failed is listed, one a live
// node still holds — or re-learned after rejoining — is not, and injecting an
// orphan again at a live node takes it off the list without a new
// registration.
func TestSetOrphans(t *testing.T) {
	s := newSet(t, 4, 130)
	for id := ID(0); id < 70; id++ {
		if err := s.Inject(int(id)%4, id); err != nil {
			t.Fatal(err)
		}
	}
	s.Mark(2, 1) // rumor 1 has a second holder
	if got := s.Orphans(nil); len(got) != 0 {
		t.Fatalf("orphans with every holder live: %v", got)
	}
	s.Fail(1, 3)
	s.Revive(3)
	s.Mark(3, 3) // rumor 3's holder rejoined and re-learned it
	// Node 1 seeded 1, 5, 9, …, 69 and node 3 seeded 3, 7, …, 67: all
	// orphaned but rumor 1 (node 2 holds it) and rumor 3.
	var want []ID
	for id := ID(5); id < 70; id += 2 {
		want = append(want, id)
	}
	got := s.Orphans(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("orphans %v, want %v", got, want)
	}
	for _, id := range got {
		if err := s.Inject(0, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Orphans(nil); len(got) != 0 {
		t.Fatalf("orphans after re-injecting them: %v", got)
	}
	if st := s.Snapshot(); st.Active != 70 || st.Injected != 70 || st.Lost != 0 {
		t.Fatalf("re-injecting orphans changed the counters: %+v", st)
	}
}

// TestSetScanConverged pins the monitor-side AND-scan: it must agree with
// the per-slot counters on the coordinator path and respect the isLive mask.
func TestSetScanConverged(t *testing.T) {
	s := newSet(t, 4, 130) // >2 words: exercise the word loop
	for id := ID(0); id < 100; id++ {
		if err := s.Inject(int(id)%4, id); err != nil {
			t.Fatal(err)
		}
	}
	// Converge every 3rd rumor.
	for id := ID(0); id < 100; id += 3 {
		for node := 0; node < 4; node++ {
			s.Mark(node, id)
		}
	}
	alive := func(int) bool { return true }
	got := s.ScanConverged(nil, alive)
	want := 0
	for id := ID(0); id < 100; id += 3 {
		want++
	}
	if len(got) != want {
		t.Fatalf("scan found %d converged, want %d", len(got), want)
	}
	for _, id := range got {
		if id%3 != 0 {
			t.Fatalf("scan reported unconverged rumor %d", id)
		}
	}
	// A node going dark shrinks the quorum: rumors held by the remaining
	// three now converge even though node 3 never held them.
	if err := s.Inject(0, 500); err != nil {
		t.Fatal(err)
	}
	s.Mark(1, 500)
	s.Mark(2, 500)
	isLive := func(n int) bool { return n != 3 }
	found := false
	for _, id := range s.ScanConverged(nil, isLive) {
		if id == 500 {
			found = true
		}
	}
	if !found {
		t.Fatal("scan missed a rumor converged across the live quorum")
	}
	// No live nodes → nothing converges (not everything).
	if got := s.ScanConverged(nil, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("dead network reported %d converged rumors", len(got))
	}
}

// TestSetConcurrentMarks is the -race exercise for the locking contract:
// node goroutines mark under RLock while a monitor goroutine scans, expires,
// and injects replacements under Lock.
func TestSetConcurrentMarks(t *testing.T) {
	const n, inflight, stream = 8, 64, 512
	s := newSet(t, n, inflight)
	next := ID(0)
	for ; next < inflight; next++ {
		if err := s.Inject(int(next)%n, next); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node)))
			buf, counts := make([]ID, 0, 64), make([]int, 0, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf, counts = s.AppendLive(buf[:0], counts[:0])
				if len(buf) > 0 {
					s.Mark(node, buf[rng.Intn(len(buf))])
					s.MarkIDs(node, buf)
				}
				s.AppendHeld(buf[:0], node)
				s.HeldCount(node)
			}
		}(node)
	}
	// Monitor: GC converged rumors and refill the window until the stream
	// is exhausted.
	alive := func(int) bool { return true }
	var scan []ID
	for next < stream {
		scan = s.ScanConverged(scan[:0], alive)
		s.Expire(scan...)
		for range scan {
			if next < stream {
				if err := s.Inject(int(next)%n, next); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
	}
	close(stop)
	wg.Wait()
	st := s.Snapshot()
	if st.Injected != stream {
		t.Fatalf("injected %d, want %d", st.Injected, stream)
	}
	if st.Active > inflight {
		t.Fatalf("active %d exceeds window %d", st.Active, inflight)
	}
}

// TestSummaryRoundTrip pins the codec: encode/decode round-trips dense and
// sparse sorted ID sets, SummarySize matches, and corrupt input is rejected.
func TestSummaryRoundTrip(t *testing.T) {
	cases := [][]ID{
		nil,
		{0},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{3, 70, 71, 4096, 1 << 20, 1<<32 - 2, 1<<32 - 1},
	}
	for _, ids := range cases {
		t.Run(fmt.Sprint(ids), func(t *testing.T) {
			enc := AppendSummary(nil, ids)
			if got := SummarySize(ids); got != len(enc) {
				t.Fatalf("SummarySize = %d, encoded %d bytes", got, len(enc))
			}
			enc = append(enc, 0xAA, 0xBB) // trailing bytes must be left alone
			dec, used, err := DecodeSummary(nil, enc)
			if err != nil {
				t.Fatal(err)
			}
			if used != len(enc)-2 {
				t.Fatalf("consumed %d bytes, want %d", used, len(enc)-2)
			}
			if len(dec) != len(ids) {
				t.Fatalf("decoded %d ids, want %d", len(dec), len(ids))
			}
			for i := range ids {
				if dec[i] != ids[i] {
					t.Fatalf("id %d: got %d, want %d", i, dec[i], ids[i])
				}
			}
		})
	}
	// A dense run of k sequential IDs costs ~1 byte per ID.
	dense := make([]ID, 1000)
	for i := range dense {
		dense[i] = ID(i) + 5000
	}
	if size := SummarySize(dense); size > 1005 {
		t.Fatalf("dense 1000-id summary took %d bytes", size)
	}
}

func TestSummaryRejectsCorruption(t *testing.T) {
	// Truncated count.
	if _, _, err := DecodeSummary(nil, []byte{0x80}); err == nil {
		t.Fatal("truncated count accepted")
	}
	// Count says 3, only 1 id present.
	b := AppendSummary(nil, []ID{9})
	b[0] = 3
	if _, _, err := DecodeSummary(nil, b); err == nil {
		t.Fatal("truncated id list accepted")
	}
	// Hostile count prefix.
	huge := make([]byte, 0, 16)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, _, err := DecodeSummary(nil, huge); err == nil {
		t.Fatal("hostile count accepted")
	}
	// Delta pushing past uint32.
	over := AppendSummary(nil, []ID{1<<32 - 1})
	over = over[:1] // keep count=1
	over = appendUvarint(over, 1<<33)
	if _, _, err := DecodeSummary(nil, over); err == nil {
		t.Fatal("uint32 overflow accepted")
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
