package rumorset

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// liveCounts is the naive live-informed count the column count is checked
// against: for every in-flight rumor, by rank, a per-bit recount of the arena
// over the rows of the non-failed nodes.
func liveCounts(s *Set) []int {
	out := make([]int, len(s.ix.slotAt))
	for r, sl := range s.ix.slotAt {
		for node := 0; node < s.n; node++ {
			if !s.failed[node] && s.row(node)[sl>>6]&(1<<(sl&63)) != 0 {
				out[r]++
			}
		}
	}
	return out
}

// recountLive checks AppendLive against the naive recount, and LiveInformed
// on a spread of ranks that includes the first and the last (it counts the
// same columns, one pass for each call).
func recountLive(t *testing.T, s *Set) {
	t.Helper()
	want := liveCounts(s)
	ids, live := s.AppendLive(nil, nil)
	if !slices.Equal(ids, s.ix.sorted) {
		t.Fatalf("AppendLive lists %d rumors, the index %d", len(ids), len(s.ix.sorted))
	}
	step := max(1, len(ids)/16)
	for r, id := range ids {
		if live[r] != want[r] {
			t.Fatalf("rumor %d (slot %d): AppendLive counts %d live holders, the arena holds %d", id, s.ix.slotAt[r], live[r], want[r])
		}
		if r%step != 0 && r != len(ids)-1 {
			continue
		}
		if got := s.LiveInformed(id); got != want[r] {
			t.Fatalf("rumor %d (slot %d): LiveInformed counts %d live holders, the arena holds %d", id, s.ix.slotAt[r], got, want[r])
		}
	}
}

// TestMergeRowDifferential drives three sets through the same random table
// history — injections, retirements that scramble the slot order, failures,
// revivals — and between table changes runs the same gossip on each: on one
// as the ID form, MarkIDs(i, AppendHeld(j)) sized by SetIDs; on one as the
// row form, SnapshotRow(j) then MergeRow(i, ·) under one view; on one as the
// wire form, Digest(j) encoded and decoded, then MergeSummary(i, Digest(i), ·)
// under one view. The arenas and every returned number must agree, and after
// every batch of table changes AppendLive and LiveInformed must equal a
// per-bit recount. The windows cover one word, one pass of the rank walk,
// and several passes; the node counts (1, 7, 9 and 40 up to one pass, 40
// beyond) are no multiple of the count's row group. Sparse IDs take Digest through the rank walk; a dense pool, and a
// pool spread over more than tallyPass words, through the index's ID-space
// bitmap and its slot runs. Both pools are larger than the window, so IDs
// collide on their home slots and the runs fragment.
func TestMergeRowDifferential(t *testing.T) {
	for _, tc := range []struct {
		window int
		stride ID // pool spacing in ID space; 0: random 32-bit IDs
	}{{5, 0}, {64, 0}, {1024, 0}, {2 * rankSpan, 0}, {5, 1}, {64, 1}, {1024, 1}, {1024, 7}} {
		name := fmt.Sprint("window=", tc.window)
		switch tc.stride {
		case 1:
			name = "dense-" + name
		case 7:
			name = "spread-" + name
		}
		nodeCounts := []int{1, 7, 9, 40}
		if tc.window > rankSpan {
			nodeCounts = []int{40} // the multi-pass rank walk's case: the count's remainders are covered above
		}
		t.Run(name, func(t *testing.T) {
			for _, nodes := range nodeCounts {
				t.Run(fmt.Sprint("nodes=", nodes), func(t *testing.T) {
					testMergeRowDifferential(t, tc.window, nodes, tc.stride)
				})
			}
		})
	}
}

func testMergeRowDifferential(t *testing.T, window, nodes int, stride ID) {
	rng := rand.New(rand.NewSource(int64(window*64 + nodes)))
	byID, byRow, bySum := newSet(t, nodes, window), newSet(t, nodes, window), newSet(t, nodes, window)
	both := func(f func(s *Set)) { f(byID); f(byRow); f(bySum) }
	// The three sets share every table change and, after each round's
	// check, their arenas: counting one of them covers all three.
	recount := func() {
		t.Helper()
		recountLive(t, byRow)
	}

	pool := make([]ID, 2*window+8)
	for k := range pool {
		pool[k] = ID(rng.Uint32())
		if stride > 0 {
			pool[k] = 1<<31 + ID(k)*stride
		}
	}
	snaps := make([]uint64, nodes*byRow.Words())
	snap := func(j int) []uint64 { return snaps[j*byRow.Words() : (j+1)*byRow.Words()] }
	digests := make([][]ID, nodes)
	sums, wire := make([]Summary, nodes), make([]Summary, nodes)

	rounds := 40
	if window > 64 {
		rounds = 12
	}
	spread := false
	for round := 0; round < rounds; round++ {
		// Table changes, identical on both sets. Every third round most
		// of the window retires and refills in a new order, so slot
		// order and ID order part ways.
		if round%3 == 2 {
			ids, _ := byID.AppendLive(nil, nil)
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			both(func(s *Set) { s.Retire(ids[:len(ids)*3/4]...) })
			recount()
		}
		for k := 0; k < window; k++ {
			node, id := rng.Intn(nodes), pool[rng.Intn(len(pool))]
			both(func(s *Set) { _ = s.Inject(node, id) }) // ErrFull on both or on neither
		}
		recount()
		for k := 0; k < 4; k++ {
			node := rng.Intn(nodes)
			if rng.Intn(2) == 0 {
				both(func(s *Set) { s.Fail(node) })
			} else {
				both(func(s *Set) { s.Revive(node) })
			}
			recount()
		}
		if byRow.Active() <= rankSpan && window > rankSpan {
			t.Fatalf("only %d rumors in flight: the multi-pass walk is not covered", byRow.Active())
		}
		if byID := len(bySum.ix.active.Words) > 0; byID != (stride > 0) {
			t.Fatalf("round %d: Digest by ID-space bitmap %v on a pool of stride %d", round, byID, stride)
		}
		spread = spread || len(bySum.ix.active.Words) > tallyPass

		// One gossip round: every digest is taken before the first merge.
		v, vs := byRow.View(), bySum.View()
		var ref Summary
		for j := 0; j < nodes; j++ {
			digests[j] = byID.AppendHeld(digests[j][:0], j)
			want := ref.SetIDs(digests[j])
			held, summaryBytes := v.SnapshotRow(snap(j), j)
			if held != len(digests[j]) || summaryBytes != want {
				t.Fatalf("round %d node %d: snapshot says %d rumors in %d bytes, the ID digest %d in %d",
					round, j, held, summaryBytes, len(digests[j]), want)
			}
			if held, summaryBytes = vs.Digest(&sums[j], j); held != len(digests[j]) || summaryBytes != want {
				t.Fatalf("round %d node %d: Digest says %d rumors in %d bytes, the ID digest %d in %d",
					round, j, held, summaryBytes, len(digests[j]), want)
			}
			if err := wire[j].Decode(sums[j].Append(nil), sums[j].Bitmap); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 6*nodes; k++ {
			i, j := rng.Intn(nodes), rng.Intn(nodes)
			want := byID.MarkIDs(i, digests[j])
			if got := v.MergeRow(i, snap(j)); got != want {
				t.Fatalf("round %d: merging node %d into %d (failed=%v): MergeRow %d fresh, MarkIDs %d",
					round, j, i, byRow.failed[i], got, want)
			}
			// sums[i] is i's digest from before this round's merges: a
			// subset of what it holds now, so still safe to skip.
			if got := vs.MergeSummary(i, &sums[i], &wire[j]); got != want {
				t.Fatalf("round %d: merging node %d into %d (failed=%v): MergeSummary %d fresh, MarkIDs %d",
					round, j, i, bySum.failed[i], got, want)
			}
		}
		v.Release()
		vs.Release()

		for _, s := range []*Set{byRow, bySum} {
			if !slices.Equal(s.held, byID.held) {
				t.Fatalf("round %d: the arenas differ", round)
			}
		}
		recount()
	}
	if stride > 1 && !spread {
		t.Fatalf("the active IDs never spanned more than %d words: SnapshotRow's multi-pass tally is not covered", tallyPass)
	}
	if st := byRow.Snapshot(); st != byID.Snapshot() || st.Expired == 0 {
		t.Fatalf("counters: row form %+v, ID form %+v", st, byID.Snapshot())
	}
}

// TestSnapshotRowDetached pins why the row is copied: a snapshot keeps saying
// what its node held when it was taken, however the row moves on, and merging
// it hands over exactly that. Neither kernel allocates.
func TestSnapshotRowDetached(t *testing.T) {
	for _, window := range []int{256, 1024} {
		s := newSet(t, 4, window)
		for k := 0; k < window; k++ {
			if err := s.Inject(k&1, ID(k*7919%window)*3); err != nil { // home slot 3x mod window: slot order differs from ID order
				t.Fatal(err)
			}
		}
		before := s.AppendHeld(nil, 0)
		snap := make([]uint64, s.Words())
		v := s.View()
		if held, _ := v.SnapshotRow(snap, 0); held != window/2 {
			t.Fatalf("window %d: snapshot holds %d rumors, want %d", window, held, window/2)
		}
		if fresh := v.MergeRow(0, make([]uint64, s.Words())); fresh != 0 {
			t.Fatalf("window %d: an empty snapshot marked %d rumors", window, fresh)
		}
		var rest Summary
		v.Digest(&rest, 1)
		v.MarkIDs(0, rest.AppendIDs(nil)) // node 0 moves on to hold everything
		if fresh := v.MergeRow(2, snap); fresh != window/2 {
			t.Fatalf("window %d: merging the snapshot marked %d rumors, want %d", window, fresh, window/2)
		}
		if fresh := v.MergeRow(2, snap); fresh != 0 {
			t.Fatalf("window %d: merging the snapshot again marked %d rumors", window, fresh)
		}
		if a := testing.AllocsPerRun(20, func() { v.SnapshotRow(snap, 1) }); a != 0 {
			t.Errorf("window %d: SnapshotRow allocates %v times per call", window, a)
		}
		if a := testing.AllocsPerRun(20, func() { v.MergeRow(3, snap) }); a != 0 {
			t.Errorf("window %d: MergeRow allocates %v times per call", window, a)
		}
		v.Release()
		if got := s.AppendHeld(nil, 2); !slices.Equal(got, before) {
			t.Fatalf("window %d: node 2 received %d rumors, node 0 held %d when the snapshot was taken", window, len(got), len(before))
		}
		recountLive(t, s)
	}
}

// TestMergeRowConcurrentShards is the simulator's round under the race
// detector: one view taken by a coordinator, shards that each own a contiguous
// node range snapshot their nodes, meet at a barrier, then merge snapshots
// taken by any shard into their own nodes; between rounds the coordinator
// changes the table. The column count must match the arena after
// every round, and the stream must drain.
func TestMergeRowConcurrentShards(t *testing.T) {
	const nodes, window, shards, stream = 96, 130, 4, 600
	s := newSet(t, nodes, window)
	snaps := make([]uint64, nodes*s.Words())
	snap := func(j int) []uint64 { return snaps[j*s.Words() : (j+1)*s.Words()] }
	inShards := func(v View, round int, f func(v View, round, node int)) {
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for node := lo; node < hi; node++ {
					f(v, round, node)
				}
			}(w*nodes/shards, (w+1)*nodes/shards)
		}
		wg.Wait()
	}
	next := ID(0)
	for round := 1; next < stream || s.Active() > 0; round++ {
		if round > 400 {
			t.Fatalf("stream stuck: %d rumors still in flight after %d rounds", s.Active(), round)
		}
		switch round % 7 {
		case 3:
			s.Fail(round%nodes, (round+40)%nodes)
		case 5:
			s.Revive((round-2)%nodes, (round+38)%nodes)
		}
		for ; next < stream && s.Active() < window; next++ {
			origin := int(next*31) % nodes
			for s.failed[origin] { // a rumor injected at a down node is lost when it revives
				origin = (origin + 1) % nodes
			}
			if err := s.Inject(origin, next*1009); err != nil {
				t.Fatal(err)
			}
		}
		v := s.View()
		inShards(v, round, func(v View, _, node int) { v.SnapshotRow(snap(node), node) })
		inShards(v, round, func(v View, round, node int) {
			for k := 0; k < 3; k++ {
				v.MergeRow(node, snap((node*7+round*13+k*29)%nodes))
			}
		})
		v.Release()
		recountLive(t, s)
		retireConverged(s)
	}
	if st := s.Snapshot(); st.Converged != stream {
		t.Fatalf("%d of %d rumors converged: %+v", st.Converged, stream, st)
	}
}
