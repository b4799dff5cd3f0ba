package phonecall

import "math/bits"

// idTable maps NodeID to node index. It is an open-addressing hash table with
// a power-of-two capacity and linear probing, built once at network creation
// (putAll) and read-only afterwards, which makes it safe to query
// concurrently from every engine shard. Replacing the former map[NodeID]int
// removes both the per-lookup hashing overhead and the map's pointer chasing
// from the round engine's direct-addressing hot path.
//
// The zero NodeID (NoNode) is never inserted, so it doubles as the
// empty-slot sentinel.
type idTable struct {
	mask uint64
	keys []NodeID
	vals []int32
}

// newIDTable returns a table sized for count entries at a load factor of at
// most 1/2, so probe sequences stay short even in the unlucky tail.
func newIDTable(count int) *idTable {
	size := 16
	for size < 2*count {
		size <<= 1
	}
	return &idTable{
		mask: uint64(size - 1),
		keys: make([]NodeID, size),
		vals: make([]int32, size),
	}
}

// hashID mixes a node ID into a table slot. IDs are uniformly random 63-bit
// values already, but one multiply-xor round keeps probe lengths short even
// for externally supplied IDs with correlated low bits.
func (t *idTable) hashID(id NodeID) uint64 {
	h := uint64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & t.mask
}

// put inserts id -> idx and reports true, or reports false when id is
// already present. The caller guarantees id is non-zero.
func (t *idTable) put(id NodeID, idx int) bool {
	slot := t.hashID(id)
	for k := t.keys[slot]; k != NoNode; k = t.keys[slot] {
		if k == id {
			return false
		}
		slot = (slot + 1) & t.mask
	}
	t.keys[slot] = id
	t.vals[slot] = int32(idx)
	return true
}

// slotBucketBits is the log₂ of the number of home-slot ranges putAll
// orders its inserts by: 2¹⁰ ranges of a 2²¹-slot table (n = 10⁶) are
// 24 KB each.
const slotBucketBits = 10

// putAll inserts ids[i] -> i for every i. Inserting in index order would
// miss the cache on every probe of a table larger than the cache, so it
// counting-sorts the indexes into order (scratch of len(ids)) by the top
// bits of their home slots and inserts in that order, sweeping the table
// once. It reports false, the table partly filled, when two IDs are equal.
//
// The bucket counts live on the heap, not in a 4 KB array on the stack:
// the runtime sizes a new goroutine's first stack by the average stack in
// use at the last GC, and a grown stack on the caller of New, scanned while
// few goroutines run, doubled the first stacks of a free-running engine's
// 4096 node goroutines in 9 of 20 live-bcast-chan runs (peak RSS +12–32
// MB).
func (t *idTable) putAll(ids []NodeID, order []int32) bool {
	shift := max(bits.Len64(t.mask)-slotBucketBits, 0)
	next := make([]int32, t.mask>>shift+2)
	for _, id := range ids {
		next[t.hashID(id)>>shift+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	for i, id := range ids {
		b := t.hashID(id) >> shift
		order[next[b]] = int32(i)
		next[b]++
	}
	for _, i := range order[:len(ids)] {
		if !t.put(ids[i], int(i)) {
			return false
		}
	}
	return true
}

// get returns the index stored for id.
func (t *idTable) get(id NodeID) (int, bool) {
	if id == NoNode {
		return 0, false
	}
	slot := t.hashID(id)
	for {
		k := t.keys[slot]
		if k == id {
			return int(t.vals[slot]), true
		}
		if k == NoNode {
			return 0, false
		}
		slot = (slot + 1) & t.mask
	}
}
