package rumorset

import (
	"math/bits"
	"sync/atomic"
)

// The live-informed count. A mark sets a bit and nothing else, so how many
// live nodes hold a rumor is counted from the arena when someone asks (a
// phase close, the end of a run, an observer's WorstSpread): for every slot,
// the number of non-failed rows with its bit set — a column count over the
// rows.
//
// The count is bit-sliced: plane p holds bit p of every column's running
// count, one word per 64 columns, so adding a row to all of its columns is a
// few word operations instead of one per held bit. Rows are added sixteen at
// a time through a carry-save (Harley–Seal) tree: fifteen full adders fold
// the group into the planes of weight 1, 2, 4 and 8 and hand a word of
// carries of weight 16 to the planes above, where it ripples. The walk is
// row-major — a group's sixteen rows, word by word — and a pass covers
// countWords words of every row, so its planes stay on the stack and
// concurrent counters share nothing.

// countWords is how many words of each row one pass of the count covers (a
// power of two): 512 columns, a cache line of each row.
const countWords = 8

// countGroup is how many rows the carry-save tree adds at a time.
const countGroup = 16

// columnCount is one pass's scratch: the bit-sliced planes and, once the
// pass ends, the columns' counts.
type columnCount struct {
	planes [bits.UintSize - 1][countWords]uint64 // plane p: bit p of each column's count
	of     [countWords * 64]int                  // column k of the pass: its count
}

// rowGroup is the rows one carry-save tree adds, each cut to the pass.
type rowGroup [countGroup]*[countWords]uint64

// at reads word w of the group's row j.
func (g *rowGroup) at(j, w int) uint64 { return atomic.LoadUint64(&g[j][w]) }

// csa is a carry-save (full) adder over 64 columns: the carry and sum bits
// of a+b+c.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// countColumns counts, for each column of the words [w0, w0+countWords) of a
// row (fewer at the row's end), how many non-failed nodes' rows have it set,
// into c.of. Caller holds mu (either mode); the rows are read atomically,
// since their owners may be setting bits.
func (s *Set) countColumns(c *columnCount, w0 int) {
	k := min(countWords, s.words-w0)
	used := bits.Len(uint(s.n)) // no column counts past n
	for p := range used {
		c.planes[p] = [countWords]uint64{}
	}
	// A group's rows, cut to the pass as whole arrays so that the adder
	// loop indexes them without bounds checks. A pass shorter than
	// countWords (the row's last) reads its rows through zero-padded copies.
	var group rowGroup
	var short [countGroup][countWords]uint64
	g := 0
	for node := 0; node < s.n || g > 0; node++ {
		if node < s.n {
			if s.failed[node] {
				continue
			}
			row := s.held[node*s.words+w0:][:k]
			if k == countWords {
				group[g] = (*[countWords]uint64)(row)
			} else {
				for w := range row {
					short[g][w] = atomic.LoadUint64(&row[w])
				}
				group[g] = &short[g]
			}
			if g++; g < countGroup {
				continue
			}
		} else {
			for ; g < countGroup; g++ { // the last group, padded with empty rows
				short[g] = [countWords]uint64{}
				group[g] = &short[g]
			}
		}
		g = 0
		for w := range countWords {
			ones, twos, fours, eights := c.planes[0][w], c.planes[1][w], c.planes[2][w], c.planes[3][w]
			twosA, ones := csa(ones, group.at(0, w), group.at(1, w))
			twosB, ones := csa(ones, group.at(2, w), group.at(3, w))
			foursA, twos := csa(twos, twosA, twosB)
			twosA, ones = csa(ones, group.at(4, w), group.at(5, w))
			twosB, ones = csa(ones, group.at(6, w), group.at(7, w))
			foursB, twos := csa(twos, twosA, twosB)
			eightsA, fours := csa(fours, foursA, foursB)
			twosA, ones = csa(ones, group.at(8, w), group.at(9, w))
			twosB, ones = csa(ones, group.at(10, w), group.at(11, w))
			foursA, twos = csa(twos, twosA, twosB)
			twosA, ones = csa(ones, group.at(12, w), group.at(13, w))
			twosB, ones = csa(ones, group.at(14, w), group.at(15, w))
			foursB, twos = csa(twos, twosA, twosB)
			eightsB, fours := csa(fours, foursA, foursB)
			carry, eights := csa(eights, eightsA, eightsB)
			c.planes[0][w], c.planes[1][w], c.planes[2][w], c.planes[3][w] = ones, twos, fours, eights
			for p := 4; carry != 0; p++ {
				plane := c.planes[p][w]
				c.planes[p][w] = plane ^ carry
				carry &= plane
			}
		}
	}
	clear(c.of[:k*64])
	for p := range used {
		for w, x := range c.planes[p][:k] {
			for ; x != 0; x &= x - 1 {
				c.of[w<<6+bits.TrailingZeros64(x)] += 1 << p
			}
		}
	}
}
