package rumorset

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// index is the Set's one derived view of the in-flight rumors: which IDs are
// active, where each one ranks among them, and which slot it owns. It is the
// only ID→slot authority. Every field is written under the Set's write lock
// only (Register/Inject insert one entry, an expiry call compacts once) and
// read under either lock mode, so readers never see a half-built index and no
// read path ever rebuilds it.
//
// The ID→slot table has the shape of phonecall's idTable: open addressing,
// linear probing, a power-of-two capacity at a load factor of at most 1/2.
// One entry is id<<32 | slot+1, so a probe is a single load and — because a
// slot is stored plus one — the zero entry is the empty sentinel even though
// rumor ID 0 is valid.
type index struct {
	sorted []ID    // active IDs, ascending
	slotAt []int32 // rank → slot, parallel to sorted
	rankOf []int32 // slot → rank among the active IDs; noRank while the slot is free
	table  []uint64
	shift  uint // 32 − log2(len(table)): bucket keeps the product's top bits
	// active is the active IDs as an ID-space bitmap anchored at the lowest,
	// so a merge drops a summary's retired IDs a word at a time instead of
	// probing the table for each, and runs map the slots to their IDs'
	// offsets in it, so a digest moves a row's bits straight to ID space.
	// Both are unset while the active IDs span more than spanWords words
	// (active.Words is empty then). A bitmap summary is sent only when
	// shorter than the delta varints, which cost at most 5 bytes per held
	// rumor plus a 3-byte count, so no bitmap the form rule picks is longer
	// than 5·window/8 + 1 words: a wider span is left to the rank walk and to
	// per-ID lookups.
	active    Summary
	runs      []slotRun
	spanWords int
}

// slotRun is a range of slots [lo, hi) whose rumors sit at a constant shift
// in the active-ID bitmap: the rumor in slot sl has offset sl+shift. A run
// may step over free slots — no row holds a bit there — so a stream, whose
// rumors take their home slots (ID mod window), keeps a map of a few runs: a
// rotation, plus a slot displaced by each home-slot collision. Runs are in
// slot order and cover every active slot exactly once.
type slotRun struct{ lo, hi, shift int32 }

// noRank marks a free slot in index.rankOf. An expiry call sets it as it
// queues a slot, which is also what makes a repeated ID inside one call miss.
const noRank int32 = -1

func newIndex(window int) index {
	size, log := 2, uint(1)
	for size < 2*window {
		size <<= 1
		log++
	}
	ix := index{
		sorted: make([]ID, 0, window),
		slotAt: make([]int32, 0, window),
		rankOf: make([]int32, window),
		table:  make([]uint64, size),
		shift:  32 - log,

		spanWords: min(maxSummaryWords, 5*window/8+1),
	}
	for sl := range ix.rankOf {
		ix.rankOf[sl] = noRank
	}
	return ix
}

// bucket is where id's probe sequence starts: one multiply, top bits kept
// (Fibonacci hashing, which spreads the sequential IDs of a stream as well as
// sparse ones).
func (ix *index) bucket(id ID) uint32 { return uint32(id) * 0x9E3779B1 >> ix.shift }

// lookup resolves an active ID to its slot: one multiply picks the bucket,
// then a linear probe that the load factor keeps short.
func (ix *index) lookup(id ID) (slot int, ok bool) {
	mask := uint32(len(ix.table) - 1)
	for h := ix.bucket(id); ; h = (h + 1) & mask {
		e := ix.table[h]
		if e == 0 {
			return 0, false
		}
		if ID(e>>32) == id {
			return int(uint32(e)) - 1, true
		}
	}
}

// put adds id → slot to the table. The caller guarantees id is absent.
func (ix *index) put(id ID, slot int32) {
	mask := uint32(len(ix.table) - 1)
	h := ix.bucket(id)
	for ix.table[h] != 0 {
		h = (h + 1) & mask
	}
	ix.table[h] = uint64(id)<<32 | uint64(slot+1)
}

// insert makes id active in slot: a binary search for its rank, a shift of
// the entries above it (none for a stream that injects ascending IDs) and one
// table put — O(window), no sort.
func (ix *index) insert(id ID, slot int) {
	rank, _ := slices.BinarySearch(ix.sorted, id)
	ix.sorted = slices.Insert(ix.sorted, rank, id)
	ix.slotAt = slices.Insert(ix.slotAt, rank, int32(slot))
	for r := rank; r < len(ix.slotAt); r++ {
		ix.rankOf[ix.slotAt[r]] = int32(r)
	}
	ix.put(id, int32(slot))
	a := &ix.active
	if off := uint64(id) - uint64(a.Base); len(a.Words) > 0 && id >= a.Base && off>>6 < uint64(ix.spanWords) {
		a.Words = setBit(a.Words, off)
		ix.addRun(int32(slot), int32(off)-int32(slot))
	} else {
		ix.rebuildActive()
	}
}

// rebuildActive recomputes the active-ID bitmap and the runs from sorted.
func (ix *index) rebuildActive() {
	a := &ix.active
	a.Words, ix.runs = a.Words[:0], ix.runs[:0]
	if len(ix.sorted) == 0 {
		return
	}
	a.Base = ix.sorted[0]
	if uint64(ix.sorted[len(ix.sorted)-1]-a.Base)>>6 >= uint64(ix.spanWords) {
		return
	}
	for _, id := range ix.sorted {
		a.Words = setBit(a.Words, uint64(id-a.Base))
	}
	for sl, r := range ix.rankOf {
		if r == noRank {
			continue
		}
		shift := int32(ix.sorted[r]-a.Base) - int32(sl)
		if k := len(ix.runs) - 1; k >= 0 && ix.runs[k].shift == shift {
			ix.runs[k].hi = int32(sl) + 1
		} else {
			ix.runs = append(ix.runs, slotRun{int32(sl), int32(sl) + 1, shift})
		}
	}
}

// addRun covers a newly active slot, whose rumor sits at sl+shift, by the
// runs: it joins the run around it or a neighbour with its shift, or starts
// a run of its own — splitting the run it falls in when that one's shift
// differs. O(log runs) plus the move of the runs above it.
func (ix *index) addRun(sl, shift int32) {
	runs := ix.runs
	k, _ := slices.BinarySearchFunc(runs, sl, func(r slotRun, sl int32) int { return cmp.Compare(r.lo, sl+1) })
	// runs[k-1] is the last run starting at or below sl, runs[k] the first above.
	if k > 0 && sl < runs[k-1].hi {
		r := runs[k-1]
		if r.shift == shift {
			return
		}
		pieces := [3]slotRun{{r.lo, sl, r.shift}, {sl, sl + 1, shift}, {sl + 1, r.hi, r.shift}}
		split := pieces[:]
		if r.hi == sl+1 {
			split = split[:2]
		}
		if r.lo == sl {
			split = split[1:]
		}
		ix.runs = slices.Replace(runs, k-1, k, split...)
		return
	}
	left := k > 0 && runs[k-1].shift == shift
	right := k < len(runs) && runs[k].shift == shift
	switch {
	case left && right:
		runs[k-1].hi = runs[k].hi
		ix.runs = slices.Delete(runs, k, k+1)
	case left:
		runs[k-1].hi = sl + 1
	case right:
		runs[k].lo = sl
	default:
		ix.runs = slices.Insert(runs, k, slotRun{sl, sl + 1, shift})
	}
}

// moveRuns ORs the bits row holds into span, the words [lo, lo+len(span))
// of the active-ID bitmap: each run's bits move one source word at a time,
// by the run's shift, into the one or two span words they land in. Bits
// landing outside span belong to another pass and are dropped. O(words +
// runs) per call, whatever the row holds.
func (ix *index) moveRuns(span, row []uint64, lo int) {
	for _, r := range ix.runs {
		first, last := int(r.lo)>>6, int(r.hi-1)>>6
		for w := first; w <= last; w++ {
			x := atomic.LoadUint64(&row[w])
			if w == first {
				x &= ^uint64(0) << (r.lo & 63)
			}
			if w == last {
				x &= ^uint64(0) >> (63 - (r.hi-1)&63)
			}
			if x == 0 {
				continue
			}
			d := w<<6 + int(r.shift) - lo<<6 // where bit 0 of x lands, from span's bit 0
			q, sh := d>>6, uint(d&63)
			if uint(q) < uint(len(span)) {
				span[q] |= x << sh
			}
			if sh != 0 && uint(q+1) < uint(len(span)) {
				span[q+1] |= x >> (64 - sh)
			}
		}
	}
}

// compact drops every entry whose slot an expiry call marked noRank, keeping
// the rest in order, and rebuilds the table from the survivors — a linear
// probe table cannot delete in place without tombstones, and one rebuild per
// call is cheaper than those.
func (ix *index) compact() {
	clear(ix.table)
	kept := 0
	for r, sl := range ix.slotAt {
		if ix.rankOf[sl] == noRank {
			continue
		}
		id := ix.sorted[r]
		ix.sorted[kept], ix.slotAt[kept], ix.rankOf[sl] = id, sl, int32(kept)
		ix.put(id, sl)
		kept++
	}
	ix.sorted, ix.slotAt = ix.sorted[:kept], ix.slotAt[:kept]
	ix.rebuildActive()
}
