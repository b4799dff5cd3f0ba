package rumorset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkDigest pins a filled summary against its own IDs: the charged size is
// the length of the form it encodes to, never more than the delta varints,
// the encoding decodes back to the IDs, and a filled bitmap and a filled ID
// list say the same whichever form is sent.
func checkDigest(t *testing.T, d *Summary, charged int) {
	t.Helper()
	ids := d.AppendIDs(nil)
	enc := d.Append(nil)
	if charged != len(enc) {
		t.Fatalf("charged %d bytes, the %s form encodes to %d", charged, formName(d.Bitmap), len(enc))
	}
	if varint := SummarySize(ids); charged > varint {
		t.Fatalf("charged %d bytes, more than the delta varints' %d", charged, varint)
	}
	var back Summary
	if err := back.Decode(enc, d.Bitmap); err != nil {
		t.Fatalf("%s form of %d ids rejected: %v", formName(d.Bitmap), len(ids), err)
	}
	if got := back.AppendIDs(nil); !slices.Equal(got, ids) {
		t.Fatalf("%s form decodes to %d ids, the digest holds %d", formName(d.Bitmap), len(got), len(ids))
	}
	if len(d.Words) > 0 {
		if got := d.appendBitmapIDs(nil); !slices.Equal(got, ids) {
			t.Fatalf("the digest's bitmap holds %d ids, its %s form %d", len(got), formName(d.Bitmap), len(ids))
		}
	} else if d.Bitmap {
		t.Fatal("bitmap form picked without a bitmap")
	}
	if !d.Bitmap && !slices.Equal(d.IDs, ids) {
		t.Fatal("the delta-varint form has no ID list")
	}
}

func formName(bitmap bool) string {
	if bitmap {
		return "bitmap"
	}
	return "delta-varint"
}

// randomHeld draws a sorted, duplicate-free held set: dense (a window's span
// with most IDs held), clustered, or sparse over the whole uint32 space.
func randomHeld(rng *rand.Rand, shape string, k int) []ID {
	seen := map[ID]bool{}
	var ids []ID
	base := ID(rng.Uint32() >> 1)
	for len(ids) < k {
		var id ID
		switch shape {
		case "dense":
			id = base + ID(rng.Intn(k+k/4+1))
		case "spread": // as wide as the index's ID-space bitmap goes
			id = base + ID(rng.Intn(40*k))
		case "clustered":
			id = base + ID(rng.Intn(4+k/16))*1_000_003 + ID(rng.Intn(64))
		default:
			id = ID(rng.Uint32())
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	if shape == "sparse" && k > 1 {
		ids[0], ids[1] = 0, math.MaxUint32 // the two ends of the ID space
	}
	slices.Sort(ids)
	return ids
}

// TestSummaryForms: for random held sets, dense and sparse to 2^32−1, the
// form SetIDs picks is charged its own encoded length, never more than the
// delta varints, and both forms of the set decode to the same IDs.
func TestSummaryForms(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	bitmaps := 0
	for _, shape := range []string{"dense", "clustered", "sparse"} {
		for _, k := range []int{0, 1, 2, 7, 45, 64, 300, 1024} {
			for rep := 0; rep < 8; rep++ {
				ids := randomHeld(rng, shape, k)
				var s Summary
				checkDigest(t, &s, s.SetIDs(ids))
				if s.Bitmap {
					bitmaps++
				}
				if len(s.Words) == 0 {
					continue
				}
				for _, bitmap := range []bool{false, true} {
					s.Bitmap = bitmap
					var back Summary
					if err := back.Decode(s.Append(nil), bitmap); err != nil {
						t.Fatalf("%s k=%d: %s form rejected: %v", shape, k, formName(bitmap), err)
					}
					if got := back.AppendIDs(nil); !slices.Equal(got, ids) {
						t.Fatalf("%s k=%d: %s form decodes to other ids", shape, k, formName(bitmap))
					}
				}
			}
		}
	}
	if bitmaps == 0 {
		t.Fatal("no set took the bitmap form")
	}
	// A stream's window: 45 of 103 IDs held across two words — the bitmap
	// takes 19 bytes where the varints take 47.
	var s Summary
	ids := randomHeld(rand.New(rand.NewSource(1)), "dense", 45)
	if n := s.SetIDs(ids); !s.Bitmap || n >= SummarySize(ids) {
		t.Fatalf("a dense window was sent in %d bytes (%s form), the varints take %d", n, formName(s.Bitmap), SummarySize(ids))
	}
}

// TestDigestChargesItsForm is the charge rule on both kernels over random
// rumor sets: SnapshotRow (the simulator's digest) and Digest (the live
// runtime's) report the same held count and the same size, that size is the
// length of the form Digest picks, and no more than SummarySize of the same
// IDs. A spread window of 1024 spans more ID space than SnapshotRow tallies
// in one pass.
func TestDigestChargesItsForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []string{"dense", "spread", "clustered", "sparse"} {
		for _, window := range []int{8, 256, 1024} {
			t.Run(fmt.Sprintf("%s/window=%d", shape, window), func(t *testing.T) {
				const nodes = 6
				s := newSet(t, nodes, window)
				for _, id := range randomHeld(rng, shape, window) {
					if err := s.Register(id); err != nil {
						t.Fatal(err)
					}
				}
				active, _ := s.AppendLive(nil, nil)
				for node := 0; node < nodes; node++ {
					// Node k holds about a k-th of the window.
					var held []ID
					for _, id := range active {
						if rng.Intn(nodes) <= node {
							held = append(held, id)
						}
					}
					s.MarkIDs(node, held)
				}
				v := s.View()
				defer v.Release()
				snap := make([]uint64, s.Words())
				var d Summary
				for node := 0; node < nodes; node++ {
					held, size := v.Digest(&d, node)
					rowHeld, rowSize := v.SnapshotRow(snap, node)
					if rowHeld != held || rowSize != size {
						t.Fatalf("node %d: the row snapshot says %d rumors in %d bytes, the digest %d in %d", node, rowHeld, rowSize, held, size)
					}
					checkDigest(t, &d, size)
					var ref Summary
					if n := ref.SetIDs(d.AppendIDs(nil)); n != size || ref.Bitmap != d.Bitmap {
						t.Fatalf("node %d: SetIDs of the digest's ids picks %d bytes (%s), the digest %d (%s)",
							node, n, formName(ref.Bitmap), size, formName(d.Bitmap))
					}
				}
			})
		}
	}
}

// TestDigestFallsBackToTheWalk: with one straggler rumor far from the rest,
// the active IDs span too wide for the index's ID-space bitmap, and Digest
// takes the rank walk — still picking the bitmap form for a node whose own
// holdings are narrow, and the varints for one that holds the straggler too.
func TestDigestFallsBackToTheWalk(t *testing.T) {
	s := newSet(t, 2, 64)
	var near []ID
	for id := ID(100); id < 140; id++ {
		near = append(near, id)
	}
	for _, id := range append(slices.Clone(near), 1<<30) {
		if err := s.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.ix.active.Words) != 0 {
		t.Fatal("the straggler left the index's ID-space bitmap in place")
	}
	s.MarkIDs(0, near)
	s.MarkIDs(1, append(slices.Clone(near), 1<<30))
	v := s.View()
	defer v.Release()
	snap := make([]uint64, s.Words())
	for node, bitmap := range []bool{true, false} {
		var d Summary
		held, size := v.Digest(&d, node)
		if d.Bitmap != bitmap {
			t.Errorf("node %d: %s form, want %s", node, formName(d.Bitmap), formName(bitmap))
		}
		if rowHeld, rowSize := v.SnapshotRow(snap, node); rowHeld != held || rowSize != size {
			t.Errorf("node %d: the row snapshot says %d rumors in %d bytes, the digest %d in %d", node, rowHeld, rowSize, held, size)
		}
		checkDigest(t, &d, size)
	}
}

// TestMergeSummaryOnlyLooksUpFresh: a received bitmap ANDed against the
// receiver's digest marks exactly what the receiver lacks, wherever the two
// bitmaps' bases fall relative to each other, and a stale ID (retired since
// the frame was sent) marks nothing.
func TestMergeSummaryOnlyLooksUpFresh(t *testing.T) {
	for _, shift := range []int{-130, -64, -3, 0, 5, 64, 70, 200} {
		s := newSet(t, 2, 512)
		for id := ID(1000); id < 1400; id++ {
			if err := s.Register(id); err != nil {
				t.Fatal(err)
			}
		}
		var mine, theirs []ID
		for id := ID(1100); id < 1200; id += 3 {
			mine = append(mine, id)
		}
		for id := ID(1100 + shift); id < ID(1200+shift); id += 2 {
			theirs = append(theirs, id)
		}
		s.MarkIDs(0, mine)
		var own, in Summary
		in.SetIDs(theirs)
		in.Bitmap = true
		want := 0
		for _, id := range theirs {
			if id >= 1000 && !slices.Contains(mine, id) { // below 1000: never registered
				want++
			}
		}
		v := s.View()
		v.Digest(&own, 0)
		if got := v.MergeSummary(0, &own, &in); got != want {
			t.Errorf("shift %d: %d fresh marks, want %d", shift, got, want)
		}
		if got := v.MergeSummary(0, &own, &in); got != 0 {
			t.Errorf("shift %d: merging again marked %d", shift, got)
		}
		v.Release()
		if got := s.HeldCount(0); got != len(mine)+want {
			t.Errorf("shift %d: holds %d, want %d", shift, got, len(mine)+want)
		}
	}
	s := newSet(t, 2, 4)
	for _, id := range []ID{7, 8} {
		if err := s.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	var frame Summary
	frame.SetIDs([]ID{7, 8})
	frame.Bitmap = true
	s.Retire(8)
	if fresh := s.mergeWithOwnView(1, &frame); fresh != 1 || s.Has(1, 8) {
		t.Fatalf("a frame naming a retired rumor marked %d (want 1, the live one)", fresh)
	}
}

// mergeWithOwnView merges a summary under a view of its own, with the
// receiver's digest taken under it.
func (s *Set) mergeWithOwnView(node int, in *Summary) int {
	v := s.View()
	defer v.Release()
	var own Summary
	v.Digest(&own, node)
	return v.MergeSummary(node, &own, in)
}

// TestSummaryRejectsBadBitmaps pins the bitmap form's decode checks.
func TestSummaryRejectsBadBitmaps(t *testing.T) {
	bitmap := func(base, count uint64, words ...uint64) []byte {
		b := binary.AppendUvarint(nil, base)
		b = binary.AppendUvarint(b, count)
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	var s Summary
	for name, raw := range map[string][]byte{
		"no words":              bitmap(5, 0),
		"word count past max":   bitmap(5, maxSummaryWords+1),
		"truncated words":       bitmap(5, 2, 1),
		"trailing bytes":        append(bitmap(5, 1, 1), 0),
		"base not held":         bitmap(5, 1, 2),
		"zero last word":        bitmap(5, 2, 1, 0),
		"base past uint32":      bitmap(1<<32, 1, 1),
		"span past uint32":      bitmap(math.MaxUint32-10, 1, 1|1<<11),
		"truncated count":       binary.AppendUvarint(nil, 5),
		"words past the buffer": bitmap(0, maxSummaryWords, 1),
	} {
		if err := s.Decode(raw, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := s.Decode(bitmap(math.MaxUint32-10, 1, 1|1<<10), true); err != nil {
		t.Errorf("a bitmap ending at ID 2^32−1 rejected: %v", err)
	}
	if err := s.Decode(append(AppendSummary(nil, []ID{1, 2}), 0), false); err == nil {
		t.Error("trailing bytes after delta varints accepted")
	}
}

// FuzzSummary: Decode never panics; whatever it accepts re-encodes in its
// form and decodes to the same IDs; both forms of the accepted set decode to
// the same IDs; and the form SetIDs picks is never longer than the varints.
//
//	go test ./internal/rumorset -run=NONE -fuzz=FuzzSummary -fuzztime=30s
func FuzzSummary(f *testing.F) {
	for _, ids := range [][]ID{nil, {0}, {3, 5, 64, 66}, {1 << 31, 1<<31 + 100}, {0, math.MaxUint32}} {
		var s Summary
		s.SetIDs(ids)
		f.Add(AppendSummary(nil, ids), false)
		if len(s.Words) > 0 {
			s.Bitmap = true
			f.Add(s.Append(nil), true)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, bitmap bool) {
		var s Summary
		if s.Decode(raw, bitmap) != nil {
			return
		}
		ids := s.AppendIDs(nil)
		if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
			t.Fatalf("%s form decoded to unsorted or repeated ids %v", formName(bitmap), ids)
		}
		var again Summary
		if err := again.Decode(s.Append(nil), bitmap); err != nil {
			t.Fatalf("re-encoded %s form rejected: %v", formName(bitmap), err)
		}
		if got := again.AppendIDs(nil); !slices.Equal(got, ids) {
			t.Fatalf("%s form round trip changed the ids: %v → %v", formName(bitmap), ids, got)
		}
		var both Summary
		checkDigest(t, &both, both.SetIDs(ids))
		if len(both.Words) == 0 {
			return // a span no bitmap may cover
		}
		for _, form := range []bool{false, true} {
			both.Bitmap = form
			var back Summary
			if err := back.Decode(both.Append(nil), form); err != nil {
				t.Fatalf("%s form of accepted ids rejected: %v", formName(form), err)
			}
			if got := back.AppendIDs(nil); !slices.Equal(got, ids) {
				t.Fatalf("%s form of %v decodes to %v", formName(form), ids, got)
			}
		}
	})
}
