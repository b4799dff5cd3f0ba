package rumorset

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// appendHeldBySort is AppendHeld as it was before the ordered index — collect
// the row's IDs in slot order, then sort — kept as the reference the
// rank-permutation walk is checked against. It resolves slots through the
// ID→slot table alone, so agreeing with it also ties the table to the
// rank/sorted side of the index.
func appendHeldBySort(s *Set, dst []ID, node int) []ID {
	start := len(dst)
	s.mu.RLock()
	idOf := make(map[int]ID, len(s.ix.sorted))
	for _, e := range s.ix.table {
		if e != 0 {
			idOf[int(uint32(e))-1] = ID(e >> 32)
		}
	}
	for w, word := range s.row(node) {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, idOf[w<<6+bits.TrailingZeros64(word)])
		}
	}
	s.mu.RUnlock()
	slices.Sort(dst[start:])
	return dst
}

// ledgerModel is the naive ledger the differential test replays every
// operation on: who holds which active rumor, and who is down.
type ledgerModel struct {
	window int
	held   map[ID]map[int]bool // active rumors → holders
	failed []bool
}

func (m *ledgerModel) register(id ID) bool {
	if _, ok := m.held[id]; ok {
		return true
	}
	if len(m.held) == m.window {
		return false
	}
	m.held[id] = map[int]bool{}
	return true
}

func (m *ledgerModel) mark(node int, id ID) {
	if holders, ok := m.held[id]; ok {
		holders[node] = true
	}
}

func (m *ledgerModel) revive(node int) {
	if !m.failed[node] {
		return
	}
	m.failed[node] = false
	for _, holders := range m.held {
		delete(holders, node)
	}
}

// informed counts the live holders of an active rumor.
func (m *ledgerModel) informed(id ID) int {
	c := 0
	for node := range m.held[id] {
		if !m.failed[node] {
			c++
		}
	}
	return c
}

func (m *ledgerModel) converged() []ID {
	live := 0
	for _, down := range m.failed {
		if !down {
			live++
		}
	}
	var out []ID
	for id := range m.held {
		if live > 0 && m.informed(id) >= live {
			out = append(out, id)
		}
	}
	return out
}

// checkIndex asserts the index invariants and the set's read side against the
// model.
func checkIndex(t *testing.T, s *Set, m *ledgerModel, stale []ID) {
	t.Helper()
	ix := &s.ix
	if len(ix.sorted) != len(m.held) || len(ix.slotAt) != len(ix.sorted) {
		t.Fatalf("index holds %d ids / %d slots, model %d", len(ix.sorted), len(ix.slotAt), len(m.held))
	}
	free := 0
	for w, x := range s.free {
		free += bits.OnesCount64(x)
		for b := 0; b < 64; b++ {
			if sl := w<<6 + b; sl >= s.cap && x&(1<<b) != 0 {
				t.Fatalf("slot %d past the window %d is marked free", sl, s.cap)
			} else if sl < s.cap && (x&(1<<b) != 0) != (ix.rankOf[sl] == noRank) {
				t.Fatalf("slot %d: free bit %v, rank %d", sl, x&(1<<b) != 0, ix.rankOf[sl])
			}
		}
	}
	if free+len(ix.sorted) != s.cap {
		t.Fatalf("%d free + %d active slots != window %d", free, len(ix.sorted), s.cap)
	}
	for r, id := range ix.sorted {
		if r > 0 && ix.sorted[r-1] >= id {
			t.Fatalf("sorted[%d]=%d not above sorted[%d]=%d", r, id, r-1, ix.sorted[r-1])
		}
		if _, ok := m.held[id]; !ok {
			t.Fatalf("index lists inactive id %d", id)
		}
		sl := int(ix.slotAt[r])
		if int(ix.rankOf[sl]) != r {
			t.Fatalf("rankOf[slotAt[%d]=%d] = %d", r, sl, ix.rankOf[sl])
		}
		if got, ok := ix.lookup(id); !ok || got != sl {
			t.Fatalf("table resolves id %d to (%d,%v), rank side says slot %d", id, got, ok, sl)
		}
	}
	// The active-ID bitmap and the runs: kept exactly while the span fits.
	if a := &ix.active; len(a.Words) > 0 {
		if got := a.appendBitmapIDs(nil); !slices.Equal(got, ix.sorted) {
			t.Fatalf("active bitmap holds %d ids, the index %d", len(got), len(ix.sorted))
		}
		checkRuns(t, ix)
	} else if n := len(ix.sorted); n > 0 && uint64(ix.sorted[n-1]-ix.sorted[0])>>6 < uint64(ix.spanWords) {
		t.Fatalf("no active bitmap though %d ids span %d words (max %d)", n, (ix.sorted[n-1]-ix.sorted[0])>>6+1, ix.spanWords)
	} else if len(ix.runs) > 0 {
		t.Fatalf("%d runs without an active bitmap", len(ix.runs))
	}
	ranked, entries := 0, 0
	for _, r := range ix.rankOf {
		if r != noRank {
			ranked++
		}
	}
	for _, e := range ix.table {
		if e != 0 {
			entries++
		}
	}
	if ranked != len(ix.sorted) || entries != len(ix.sorted) {
		t.Fatalf("%d ranked slots, %d table entries, %d active ids", ranked, entries, len(ix.sorted))
	}
	ids, live := s.AppendLive(nil, nil)
	if !slices.Equal(ids, ix.sorted) || len(live) != len(ids) {
		t.Fatalf("AppendLive lists %v with %d counts, index %v", ids, len(live), ix.sorted)
	}
	for r, id := range ids {
		if live[r] != m.informed(id) {
			t.Fatalf("rumor %d: AppendLive counts %d, model %d", id, live[r], m.informed(id))
		}
	}

	for node := 0; node < s.n; node++ {
		var want []ID
		for id, holders := range m.held {
			if holders[node] {
				want = append(want, id)
			}
		}
		slices.Sort(want)
		var d Summary
		v := s.View()
		held, size := v.Digest(&d, node)
		v.Release()
		got := d.AppendIDs(nil)
		if !slices.Equal(got, want) || held != len(want) {
			t.Fatalf("node %d: Digest %v (held %d), model %v", node, got, held, want)
		}
		if ref := appendHeldBySort(s, nil, node); !slices.Equal(got, ref) {
			t.Fatalf("node %d: Digest %v, sort-based reference %v", node, got, ref)
		}
		checkDigest(t, &d, size)
		if c := s.HeldCount(node); c != len(want) {
			t.Fatalf("node %d: HeldCount %d, model %d", node, c, len(want))
		}
	}
	for id := range m.held {
		if got, want := s.LiveInformed(id), m.informed(id); got != want {
			t.Fatalf("rumor %d: LiveInformed %d, model %d", id, got, want)
		}
	}
	for _, id := range stale {
		if _, active := m.held[id]; active {
			continue // re-registered since: a new epoch, no longer stale
		}
		if s.Has(0, id) || s.MarkIDs(0, []ID{id}) != 0 {
			t.Fatalf("stale id %d still resolves", id)
		}
	}
}

// checkRuns asserts that the runs are ordered, disjoint and non-empty, and
// cover every active slot exactly once with the shift that takes it to its
// ID's offset in the active bitmap.
func checkRuns(t *testing.T, ix *index) {
	t.Helper()
	for k, r := range ix.runs {
		if r.lo >= r.hi || k > 0 && ix.runs[k-1].hi > r.lo {
			t.Fatalf("run %d is [%d,%d) after %+v", k, r.lo, r.hi, ix.runs[max(k-1, 0)])
		}
	}
	for r, id := range ix.sorted {
		sl := ix.slotAt[r]
		k, _ := slices.BinarySearchFunc(ix.runs, sl, func(r slotRun, sl int32) int { return cmp.Compare(r.lo, sl+1) })
		if k == 0 || sl >= ix.runs[k-1].hi {
			t.Fatalf("rumor %d: slot %d is in no run", id, sl)
		}
		if want := int32(id-ix.active.Base) - sl; ix.runs[k-1].shift != want {
			t.Fatalf("rumor %d: slot %d is in a run of shift %d, its offset needs %d", id, sl, ix.runs[k-1].shift, want)
		}
	}
}

// homeFree reports whether id is not in flight and its home slot is free:
// then registering it must put it there.
func homeFree(s *Set, id ID) bool {
	_, active := s.ix.lookup(id)
	home := uint64(id) % uint64(s.cap)
	return !active && s.free[home>>6]&(1<<(home&63)) != 0
}

// checkHome asserts that an ID registered into a free home slot got it.
func checkHome(t *testing.T, s *Set, id ID, wasFree bool) {
	t.Helper()
	if sl, ok := s.ix.lookup(id); wasFree && (!ok || uint64(sl) != uint64(id)%uint64(s.cap)) {
		t.Fatalf("id %d took slot %d (active %v), its free home slot is %d", id, sl, ok, uint64(id)%uint64(s.cap))
	}
}

// TestIndexDifferential replays random operation sequences with heavy slot
// reuse on the set and on a naive model, checking after every batch that the
// ordered index is consistent (ascending IDs, rank ↔ sorted ↔ table), that
// the rank-permutation walk emits exactly what the sort-based reference does,
// and that retired IDs keep missing. Window 4096 is past the on-stack rank
// bitmap, so its digests take several passes. A dense pool at the top of the
// ID space keeps the index's active-ID bitmap in use, so digests go by ID.
func TestIndexDifferential(t *testing.T) {
	for _, tc := range []struct {
		window int
		dense  bool
	}{{1, false}, {63, false}, {64, false}, {65, false}, {1024, false}, {4096, false}, {63, true}, {1024, true}} {
		window := tc.window
		name := fmt.Sprint("window=", window)
		if tc.dense {
			name = "dense-" + name
		}
		t.Run(name, func(t *testing.T) {
			const nodes = 5
			rng := rand.New(rand.NewSource(int64(window)))
			s := newSet(t, nodes, window)
			m := &ledgerModel{window: window, held: map[ID]map[int]bool{}, failed: make([]bool, nodes)}

			// Sparse IDs over the whole uint32 space, both ends included, few
			// enough that retired ones come back as new epochs.
			pool := []ID{0, 1, math.MaxUint32 - 1, math.MaxUint32}
			for len(pool) < 2*window+8 {
				pool = append(pool, ID(rng.Uint32()))
			}
			if tc.dense {
				for k := range pool {
					pool[k] = math.MaxUint32 - ID(k)
				}
			}
			pick := func() ID { return pool[rng.Intn(len(pool))] }
			active := func() ID {
				if len(s.ix.sorted) == 0 {
					return pick()
				}
				return s.ix.sorted[rng.Intn(len(s.ix.sorted))]
			}
			var stale []ID
			expire := func(converged bool, ids ...ID) {
				if converged {
					s.Retire(ids...)
				} else {
					s.Expire(ids...)
				}
				for _, id := range ids {
					if _, ok := m.held[id]; ok {
						delete(m.held, id)
						stale = append(stale, id)
					}
				}
			}

			batches, perBatch := 60, 4*window+40
			if window >= 1024 {
				batches = 12
			}
			for b := 0; b < batches; b++ {
				for op := 0; op < perBatch; op++ {
					node := rng.Intn(nodes)
					switch k := rng.Intn(100); {
					case k < 30:
						id := pick()
						wasFree := homeFree(s, id)
						err := s.Inject(node, id)
						checkHome(t, s, id, wasFree)
						if ok := m.register(id); ok != (err == nil) || (err != nil && !errors.Is(err, ErrFull)) {
							t.Fatalf("Inject(%d): %v, model admits: %v", id, err, ok)
						}
						m.mark(node, id)
					case k < 38:
						id := pick()
						wasFree := homeFree(s, id)
						err := s.Register(id)
						checkHome(t, s, id, wasFree)
						if ok := m.register(id); ok != (err == nil) {
							t.Fatalf("Register(%d): %v, model admits: %v", id, err, ok)
						}
					case k < 55:
						id := active()
						s.Mark(node, id)
						m.mark(node, id)
					case k < 75:
						ids := make([]ID, 1+rng.Intn(12))
						for i := range ids {
							if ids[i] = active(); rng.Intn(4) == 0 {
								ids[i] = pick() // maybe inactive, maybe stale
							}
							m.mark(node, ids[i])
						}
						s.MarkIDs(node, ids)
					case k < 87:
						// Active, repeated and inactive IDs in one call.
						ids := []ID{active(), active(), pick()}
						ids = append(ids, ids[0])
						expire(rng.Intn(2) == 0, ids...)
					case k < 91:
						s.Fail(node)
						m.failed[node] = true
					case k < 95:
						s.Revive(node)
						m.revive(node)
					case k < 97:
						want := m.converged()
						got := s.ScanConverged(nil, func(node int) bool { return !m.failed[node] })
						slices.Sort(want)
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("ScanConverged found %v, model %v", got, want)
						}
						expire(true, got...)
					case rng.Intn(window+1) < 8:
						// A rare burst of retirements (about one per batch in the
						// large windows, which otherwise run full): empties most
						// of the window, so the next injections reuse slots in a
						// new order.
						burst := append([]ID(nil), s.ix.sorted...)
						rng.Shuffle(len(burst), func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
						expire(true, burst[:len(burst)*3/4]...)
					}
				}
				checkIndex(t, s, m, stale)
				if len(stale) > 64 {
					stale = stale[len(stale)-64:]
				}
			}
			if st := s.Snapshot(); st.Expired == 0 || st.Injected <= int64(window) {
				t.Fatalf("no slot reuse exercised: %+v", st)
			}
		})
	}
}

// TestStreamKeepsFewRuns pins what the home slots are for: a stream whose
// rumors retire in injection order keeps its slot map a rotation — at most
// two runs, one on each side of the window's wrap — however long it runs, so
// a digest moves a row in a few word shifts.
func TestStreamKeepsFewRuns(t *testing.T) {
	const window = 256
	s := newSet(t, 4, window)
	for id := ID(0); id < 16*window+window/3; id++ {
		if s.Active() == window {
			s.Retire(id - window)
		}
		wasFree := homeFree(s, id)
		if err := s.Inject(int(id)%4, id); err != nil {
			t.Fatal(err)
		}
		checkHome(t, s, id, wasFree)
		if !wasFree || len(s.ix.runs) > 2 {
			t.Fatalf("id %d: home slot free %v, %d runs", id, wasFree, len(s.ix.runs))
		}
	}
	checkRuns(t, &s.ix)
}

// TestIndexMultiPassDigest pins the windows wider than the on-stack rank
// bitmap: with more than rankSpan rumors in flight, registered in an order
// unrelated to their IDs, a digest still comes out ascending and complete.
func TestIndexMultiPassDigest(t *testing.T) {
	const window = 4096
	s := newSet(t, 2, window)
	for i := 0; i < window; i++ {
		if err := s.Inject(i&1, ID(i*7919%window)*1_000_003); err != nil {
			t.Fatal(err)
		}
	}
	for node := 0; node < 2; node++ {
		got := s.AppendHeld(nil, node)
		if len(got) != window/2 || !slices.IsSorted(got) {
			t.Fatalf("node %d: %d ids (want %d), sorted=%v", node, len(got), window/2, slices.IsSorted(got))
		}
		if ref := appendHeldBySort(s, nil, node); !slices.Equal(got, ref) {
			t.Fatalf("node %d: multi-pass digest differs from the sort-based reference", node)
		}
	}
}

// TestDigestKernelsDoNotAllocate locks the hot kernels at zero allocations:
// AppendHeld into a pre-sized buffer and MarkIDs, at the stream workload's
// window and at the simulator workload's.
func TestDigestKernelsDoNotAllocate(t *testing.T) {
	for _, window := range []int{256, 1024} {
		s := newSet(t, 4, window)
		ids := make([]ID, window)
		for i := range ids {
			ids[i] = ID(i*7919%window) * 3 // home slot 3x mod window: slot order differs from ID order
			if err := s.Inject(0, ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]ID, 0, window)
		if a := testing.AllocsPerRun(20, func() { dst = s.AppendHeld(dst[:0], 0) }); a != 0 {
			t.Errorf("window %d: AppendHeld allocates %v times per call", window, a)
		}
		if len(dst) != window {
			t.Fatalf("window %d: digest holds %d ids", window, len(dst))
		}
		node := 1
		if a := testing.AllocsPerRun(3, func() { s.MarkIDs(node, ids); node = 1 + node%3 }); a != 0 {
			t.Errorf("window %d: MarkIDs allocates %v times per call", window, a)
		}
	}
}
