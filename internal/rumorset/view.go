package rumorset

import (
	"math/bits"
	"sync/atomic"
)

// View is the table's read lock, held: while it is out, no rumor is
// registered or expired and no node fails or revives, so slots, ranks and the
// failed flags stand still and every kernel below runs without locking. The
// goroutine that took the view may hand it to others (the simulator's
// coordinator takes one per round and its engine shards run the kernels under
// it); each of them keeps the Set's ownership rule — node i's row is written
// by i's owner only. Release it before anything that changes the table.
type View struct{ s *Set }

// View takes the read lock and returns the view holding it.
func (s *Set) View() View {
	s.mu.RLock()
	return View{s}
}

// Release gives the read lock back. The view is dead afterwards.
func (v View) Release() { v.s.mu.RUnlock() }

// MarkIDs merges a decoded summary into node's holdings: every known ID is
// marked, unknown (never-registered or already-expired) IDs are skipped, and
// the number of fresh marks is returned. Callable from node's owner only.
func (v View) MarkIDs(node int, ids []ID) int {
	s := v.s
	row, live, failed := s.row(node), s.liveRow(node), s.failed[node]
	fresh := 0
	for _, id := range ids {
		sl, ok := s.ix.lookup(id)
		if !ok {
			continue
		}
		// markLocked with the row, the stripe and the liveness test hoisted
		// out of the loop.
		word, mask := &row[sl>>6], uint64(1)<<(sl&63)
		if atomic.LoadUint64(word)&mask != 0 {
			continue
		}
		atomic.OrUint64(word, mask)
		fresh++
		if !failed {
			live[sl].Add(1)
		}
	}
	return fresh
}

// HeldCount returns how many active rumors node holds.
func (v View) HeldCount(node int) int {
	c := 0
	row := v.s.row(node)
	for w := range row {
		c += bits.OnesCount64(atomic.LoadUint64(&row[w]))
	}
	return c
}

// AppendDigest appends the sorted IDs of every active rumor node holds to dst
// and returns the extended slice with SummarySize of the appended IDs,
// computed in the same walk.
func (v View) AppendDigest(dst []ID, node int) (out []ID, summaryBytes int) {
	out, _, summaryBytes = v.s.walk(dst, v.s.row(node), true)
	return out, summaryBytes
}

// SnapshotRow copies node's holdings row, in slot space, into dst (Words
// long) and returns what a digest of it would say: how many rumors it holds
// and the SummarySize of their sorted IDs. The copy means what AppendDigest's
// IDs mean only while the view it was taken under is out: a slot is a local
// reuse pool, so once the table changes a set bit may name another rumor.
func (v View) SnapshotRow(dst []uint64, node int) (held, summaryBytes int) {
	row := v.s.row(node)
	for w := range row {
		dst[w] = atomic.LoadUint64(&row[w])
	}
	_, held, summaryBytes = v.s.walk(nil, dst, false)
	return held, summaryBytes
}

// MergeRow ORs a row snapshot taken under this view into node's holdings,
// word by word, counting a live node's fresh bits into the live counters. It
// leaves the set exactly as MarkIDs of the snapshot's IDs would and returns
// the same number of fresh marks. Callable from node's owner only.
func (v View) MergeRow(node int, snap []uint64) int {
	s := v.s
	row, live, failed := s.row(node), s.liveRow(node), s.failed[node]
	fresh := 0
	for w, have := range snap {
		gain := have &^ atomic.LoadUint64(&row[w])
		if gain == 0 {
			continue
		}
		atomic.OrUint64(&row[w], gain)
		fresh += bits.OnesCount64(gain)
		if failed {
			continue
		}
		for ; gain != 0; gain &= gain - 1 {
			live[w<<6+bits.TrailingZeros64(gain)].Add(1)
		}
	}
	return fresh
}

// rankSpan is how many ranks one pass of walk sorts on its stack bitmap.
// Windows up to this size take one pass; a larger window takes one pass per
// rankSpan active rumors, still without allocating.
const rankSpan = 1024

// walk visits the rumors a holdings row (a node's own, or a snapshot of one)
// holds in ascending ID order, counting them and sizing their summary; with
// collect it also appends the IDs to dst.
//
// The IDs come out ascending without a sort: the row's bits are slot-ordered,
// so each set bit is moved to its rumor's rank among the active IDs (the
// index's slot→rank permutation) in a scratch bitmap, and walking that bitmap
// visits the held rumors in ID order — O(held) + O(words).
func (s *Set) walk(dst []ID, row []uint64, collect bool) (out []ID, held, summaryBytes int) {
	prev := ^uint64(0) // so that the first ID's "delta−1" is the ID itself
	var ranks [rankSpan / 64]uint64
	for base := 0; base < len(s.ix.sorted); base += rankSpan {
		ids := s.ix.sorted[base:min(base+rankSpan, len(s.ix.sorted))]
		span := ranks[:(len(ids)+63)>>6]
		clear(span)
		for w := range row {
			for word := atomic.LoadUint64(&row[w]); word != 0; word &= word - 1 {
				r := int(s.ix.rankOf[w<<6+bits.TrailingZeros64(word)]) - base
				if uint(r) < uint(len(ids)) {
					span[r>>6] |= 1 << (r & 63)
				}
			}
		}
		for w, word := range span {
			held += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				id := uint64(ids[w<<6+bits.TrailingZeros64(word)])
				if collect {
					dst = append(dst, ID(id))
				}
				summaryBytes += uvarintLen(id - prev - 1)
				prev = id
			}
		}
	}
	return dst, held, summaryBytes + uvarintLen(uint64(held))
}
