package rumorset

import (
	"math/bits"
	"slices"
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

// Active returns the number of in-flight rumors.
func (v View) Active() int { return len(v.s.ix.sorted) }

// MarkIDs merges a decoded summary into node's holdings: every known ID is
// marked, unknown (never-registered or already-expired) IDs are skipped, and
// the number of fresh marks is returned. Callable from node's owner only.
func (v View) MarkIDs(node int, ids []ID) int {
	return v.MergeSummary(node, &Summary{}, &Summary{IDs: ids})
}

// MergeSummary merges a received summary, in either form, into node's
// holdings and returns the number of fresh marks, leaving the set as MarkIDs
// of the summary's IDs would. own is node's Digest taken under this view: a
// bitmap is ANDed against own's bitmap and against the index's bitmap of the
// active IDs a word at a time, and a delta-varint list tested against both ID
// by ID, so only the IDs node lacks that are still in flight are looked up.
// Each fresh mark is recorded in own's bitmap, so a later summary in the same
// round skips it too; own's ID list is not updated — take a new Digest
// before sending it. Callable from node's owner only.
func (v View) MergeSummary(node int, own, in *Summary) int {
	s := v.s
	row := s.row(node)
	active := &s.ix.active
	filter := len(active.Words) > 0
	fresh := 0
	if !in.Bitmap {
		for _, id := range in.IDs {
			if !own.has(id) && (!filter || active.has(id)) && s.markID(row, id) {
				own.add(id)
				fresh++
			}
		}
		return fresh
	}
	for k, w := range in.Words {
		at := uint64(in.Base) + uint64(k)<<6
		w &^= own.bitsAt(at)
		if filter {
			w &= active.bitsAt(at)
		}
		for ; w != 0; w &= w - 1 {
			if id := ID(at + uint64(bits.TrailingZeros64(w))); s.markID(row, id) {
				own.add(id)
				fresh++
			}
		}
	}
	return fresh
}

// markID is markLocked for an ID, with the row hoisted into the caller: it
// sets the rumor's bit unless the ID is not active (the ABA guard for stale
// summaries) or the bit is already set, and reports whether it set it.
func (s *Set) markID(row []uint64, id ID) bool {
	sl, ok := s.ix.lookup(id)
	if !ok {
		return false
	}
	// Load-then-Or instead of testing Or's return value: per the ownership
	// contract, node i's row has one concurrent writer, so the check-then-set
	// pair cannot interleave with another setter of the same row.
	word, mask := &row[sl>>6], uint64(1)<<(sl&63)
	if atomic.LoadUint64(word)&mask != 0 {
		return false
	}
	atomic.OrUint64(word, mask)
	return true
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

// Digest fills d with node's holdings — the ID-space bitmap when their span
// fits, the sorted IDs when the bitmap did not fit or is not the form sent —
// and picks the form a summary frame sends them in. It returns how many
// rumors node holds and the encoded length of that form, the bytes its
// holdings message is charged.
func (v View) Digest(d *Summary, node int) (held, summaryBytes int) {
	s, row := v.s, v.s.row(node)
	var t tally
	if n := len(s.ix.active.Words); n > 0 {
		bm := slices.Grow(d.Words[:0], n)[:n]
		t = s.tallyRow(bm, row)
		d.Base, d.Words = ID(t.first), anchor(bm, uint64(s.ix.active.Base), t)
		summaryBytes, d.Bitmap = t.form()
		d.IDs = d.IDs[:0]
		if !d.Bitmap {
			d.IDs = d.appendBitmapIDs(d.IDs)
		}
		return t.held, summaryBytes
	}
	d.IDs, t = s.walk(d.IDs[:0], row, true)
	d.Base, d.Words = ID(t.first), d.Words[:0]
	summaryBytes, d.Bitmap = t.form()
	if d.Bitmap {
		for _, id := range d.IDs {
			d.Words = setBit(d.Words, uint64(id-d.Base))
		}
	}
	return t.held, summaryBytes
}

// tallyRow tallies the summary of the rumors row holds while the index keeps
// its active-ID bitmap: the row's bits move to ID space a run at a time
// (moveRuns) into bm, and bm is tallied a word at a time — bits inside one
// word are under 64 apart, so after a word's first ID every delta−1 is one
// varint byte and only the first needs sizing. A bm as long as the active-ID
// bitmap takes one pass and is left holding node's ID-space bitmap, anchored
// where the active one is; a shorter one takes one pass per len(bm) words of
// it.
func (s *Set) tallyRow(bm, row []uint64) (t tally) {
	base, n := uint64(s.ix.active.Base), len(s.ix.active.Words)
	prev := ^uint64(0) // so that the first ID's "delta−1" is the ID itself
	for lo := 0; lo < n; lo += len(bm) {
		span := bm[:min(len(bm), n-lo)]
		clear(span)
		s.ix.moveRuns(span, row, lo)
		for k, w := range span {
			if w == 0 {
				continue
			}
			at := base + uint64(lo+k)<<6
			first := at + uint64(bits.TrailingZeros64(w))
			if t.held == 0 {
				t.first = first
			}
			c := bits.OnesCount64(w)
			t.held += c
			t.varintBytes += uvarintLen(first-prev-1) + c - 1
			prev = at + uint64(63-bits.LeadingZeros64(w))
		}
	}
	t.last = prev
	t.varintBytes += uvarintLen(uint64(t.held))
	return t
}

// anchor shifts bm (bit 0 is ID base) down in place to start at t's first
// held ID and returns it cut to the held span; empty when nothing is held.
func anchor(bm []uint64, base uint64, t tally) []uint64 {
	if t.held == 0 {
		return bm[:0]
	}
	q, r := int((t.first-base)>>6), uint((t.first-base)&63)
	n := int((t.last-t.first)>>6) + 1
	for k := 0; k < n; k++ {
		w := bm[q+k] >> r
		if r != 0 && q+k+1 < len(bm) {
			w |= bm[q+k+1] << (64 - r)
		}
		bm[k] = w
	}
	return bm[:n]
}

// tallyPass is how many words of ID space SnapshotRow tallies per pass of its
// stack scratch: one pass covers a 4096-ID span of active rumors.
const tallyPass = 64

// SnapshotRow copies node's holdings row, in slot space, into dst (Words
// long) and returns what a Digest of it would say: how many rumors it holds
// and the encoded length of their summary, sized by the same path Digest
// takes. The copy means what Digest's IDs mean only while the view it was
// taken under is out: a slot is a local reuse pool, so once the table changes
// a set bit may name another rumor.
func (v View) SnapshotRow(dst []uint64, node int) (held, summaryBytes int) {
	s, row := v.s, v.s.row(node)
	for w := range row {
		dst[w] = atomic.LoadUint64(&row[w])
	}
	var t tally
	if len(s.ix.active.Words) > 0 {
		var buf [tallyPass]uint64
		t = s.tallyRow(buf[:], dst)
	} else {
		_, t = s.walk(nil, dst, false)
	}
	summaryBytes, _ = t.form()
	return t.held, summaryBytes
}

// MergeRow ORs a row snapshot taken under this view into node's holdings,
// word by word. It leaves the set exactly as MarkIDs of the snapshot's IDs
// would and returns the same number of fresh marks. Callable from node's
// owner only.
func (v View) MergeRow(node int, snap []uint64) int {
	row := v.s.row(node)
	fresh := 0
	for w, have := range snap {
		if gain := have &^ atomic.LoadUint64(&row[w]); gain != 0 {
			atomic.OrUint64(&row[w], gain)
			fresh += bits.OnesCount64(gain)
		}
	}
	return fresh
}

// rankSpan is how many ranks one pass of walk sorts on its stack bitmap.
// Windows up to this size take one pass; a larger window takes one pass per
// rankSpan active rumors, still without allocating.
const rankSpan = 1024

// walk visits the rumors a holdings row (a node's own, or a snapshot of one)
// holds in ascending ID order and tallies their summary; with collect it also
// appends the IDs to dst.
//
// The IDs come out ascending without a sort: the row's bits are slot-ordered,
// so each set bit is moved to its rumor's rank among the active IDs (the
// index's slot→rank permutation) in a scratch bitmap, and walking that bitmap
// visits the held rumors in ID order — O(held) + O(words).
func (s *Set) walk(dst []ID, row []uint64, collect bool) (out []ID, t tally) {
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
			if word == 0 {
				continue
			}
			if t.held == 0 {
				t.first = uint64(ids[w<<6+bits.TrailingZeros64(word)])
			}
			t.held += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				id := uint64(ids[w<<6+bits.TrailingZeros64(word)])
				if collect {
					dst = append(dst, ID(id))
				}
				t.varintBytes += uvarintLen(id - prev - 1)
				prev = id
			}
		}
	}
	t.last = prev
	t.varintBytes += uvarintLen(uint64(t.held))
	return dst, t
}
