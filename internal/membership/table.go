package membership

import (
	"sort"
	"sync"
)

// DefaultK is the k-bucket capacity (and the lookup result width): how many
// contacts each of the 64 distance buckets retains.
const DefaultK = 20

// Table is the k-bucket routing table: 64 buckets indexed by the position of
// the highest bit in which a contact's ID differs from self, each holding up
// to k contacts in least-recently-seen order plus a bounded replacement cache
// of recently seen overflow contacts.
//
// The eviction policy is Kademlia's: a full bucket never drops its
// least-recently-seen entry eagerly — Update reports it as a probe candidate,
// and only an observed liveness failure (Fail, called by the node when the
// probe times out) evicts it, promoting the freshest replacement-cache entry
// in its place. Long-lived contacts are the most likely to stay alive, so the
// table is biased toward them by construction.
//
// Every method is deterministic: the table a node ends up with is a pure
// function of the sequence of Update/Fail calls (locked by
// TestTableDeterministicJoinOrder). Table is safe for concurrent use; no
// method blocks on anything but the table's own mutex, and none performs
// network I/O ("no network under locks" — probing is the caller's job).
type Table struct {
	self ID
	k    int

	mu      sync.Mutex
	buckets [64]bucket
	size    int
}

// bucket holds one distance range's contacts. entries[0] is the
// least-recently-seen contact, the tail the most recently seen; cache is the
// replacement overflow in the same order, capped at k.
type bucket struct {
	entries []Contact
	cache   []Contact
}

// NewTable returns an empty routing table for the node with the given ID.
// k <= 0 takes DefaultK.
func NewTable(self ID, k int) *Table {
	if k <= 0 {
		k = DefaultK
	}
	return &Table{self: self, k: k}
}

// K returns the bucket capacity.
func (t *Table) K() int { return t.k }

// Update records evidence that c is alive (any frame received from it, any
// response to an RPC). A known contact is refreshed: moved to the
// most-recently-seen end, its announce address updated in place. An unknown
// contact joins its bucket when there is room; when the bucket is full the
// contact enters the replacement cache instead and Update returns the
// bucket's least-recently-seen entry with probe=true — the caller should ping
// that entry and call Fail on it if the ping times out. Self and invalid
// contacts are ignored.
func (t *Table) Update(c Contact) (stale Contact, probe bool) {
	if c.ID == t.self || c.Validate() != nil {
		return Contact{}, false
	}
	bi := t.self.BucketIndex(c.ID)
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[bi]

	if i := indexOf(b.entries, c.ID); i >= 0 {
		// Known: refresh recency and address.
		e := b.entries[i]
		e.Addr = c.Addr
		b.entries = append(append(b.entries[:i], b.entries[i+1:]...), e)
		return Contact{}, false
	}
	if len(b.entries) < t.k {
		b.entries = append(b.entries, c)
		t.size++
		return Contact{}, false
	}
	// Full bucket: stash the newcomer in the replacement cache (refreshing
	// recency if it is already there) and nominate the LRU entry for a probe.
	if i := indexOf(b.cache, c.ID); i >= 0 {
		b.cache = append(b.cache[:i], b.cache[i+1:]...)
	} else if len(b.cache) >= t.k {
		b.cache = b.cache[1:] // forget the oldest overflow contact
	}
	b.cache = append(b.cache, c)
	return b.entries[0], true
}

// Fail records that id did not answer a liveness probe: the entry is evicted
// and the freshest replacement-cache contact (if any) is promoted into the
// bucket. A cached-but-not-promoted id is dropped from the cache. Returns
// true when a bucket entry was actually evicted.
func (t *Table) Fail(id ID) bool {
	if id == t.self {
		return false
	}
	bi := t.self.BucketIndex(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[bi]
	if i := indexOf(b.entries, id); i >= 0 {
		b.entries = append(b.entries[:i], b.entries[i+1:]...)
		t.size--
		if n := len(b.cache); n > 0 {
			b.entries = append(b.entries, b.cache[n-1])
			b.cache = b.cache[:n-1]
			t.size++
		}
		return true
	}
	if i := indexOf(b.cache, id); i >= 0 {
		b.cache = append(b.cache[:i], b.cache[i+1:]...)
	}
	return false
}

// AddrOf returns the announce address stored for id — the exact-match hit the
// gossip path resolves peers through.
func (t *Table) AddrOf(id ID) (string, bool) {
	if id == t.self {
		return "", false
	}
	bi := t.self.BucketIndex(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[bi]
	if i := indexOf(b.entries, id); i >= 0 {
		return b.entries[i].Addr, true
	}
	return "", false
}

// Closest returns up to count contacts sorted by ascending XOR distance to
// target (ties cannot occur: IDs are unique within the table). It is the
// answer to a FIND_NODE and the seed of an iterative lookup.
func (t *Table) Closest(target ID, count int) []Contact {
	if count <= 0 {
		count = t.k
	}
	t.mu.Lock()
	out := make([]Contact, 0, min(count, t.size))
	for bi := range t.buckets {
		out = append(out, t.buckets[bi].entries...)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].ID.Distance(target) < out[j].ID.Distance(target)
	})
	if len(out) > count {
		out = out[:count]
	}
	return out
}

// Len returns the number of contacts held in buckets (the replacement caches
// are not counted; they are candidates, not routable state).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Occupancy reports how many of the 64 buckets hold at least one contact —
// the spread of the node's view across the ID space (exported as the
// repro_membership_buckets_occupied gauge).
func (t *Table) Occupancy() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	occ := 0
	for bi := range t.buckets {
		if len(t.buckets[bi].entries) > 0 {
			occ++
		}
	}
	return occ
}

// BucketLen returns bucket bi's entry count (tests and diagnostics).
func (t *Table) BucketLen(bi int) int {
	if bi < 0 || bi >= 64 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buckets[bi].entries)
}

// CacheLen returns bucket bi's replacement-cache depth (tests).
func (t *Table) CacheLen(bi int) int {
	if bi < 0 || bi >= 64 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buckets[bi].cache)
}

// Contacts returns a snapshot of every bucket entry, bucket-major and LRU
// order within each bucket (diagnostics and determinism tests).
func (t *Table) Contacts() []Contact {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Contact, 0, t.size)
	for bi := range t.buckets {
		out = append(out, t.buckets[bi].entries...)
	}
	return out
}

// indexOf finds id in a contact slice.
func indexOf(cs []Contact, id ID) int {
	for i := range cs {
		if cs[i].ID == id {
			return i
		}
	}
	return -1
}
