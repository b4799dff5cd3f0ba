// Package rumorset tracks an unbounded stream of rumors through a bounded
// in-flight window, lifting the 64-rumor ceiling of the phonecall bitmask
// tracker (which remains the small-set specialization for ≤64 dense IDs).
//
// Rumor IDs come from an unbounded uint32 space; at any moment at most
// MaxInFlight of them are active. Each active rumor owns a slot in a flat
// per-node bit arena, so mark/query stay O(1) and a node's holdings stay one
// cache-friendly bit row. A rumor takes its home slot, ID mod MaxInFlight,
// when that slot is free, so a stream's slot→ID map stays a rotation of a
// few runs (index.go). When a rumor converges (every live node holds it)
// it is expired: its slot is reclaimed for the next injection. The set keeps
// no per-rumor counters: marks only set bits, and a live-informed count is a
// column count over the rows of the live nodes (count.go). On the wire,
// summaries carry rumor IDs — never slots — so a stale frame advertising an
// expired rumor fails the ID→slot lookup and is ignored instead of
// mis-marking whatever rumor reused the slot.
//
// Concurrency contract. The table (which rumors are in flight, in which slot,
// which nodes are down) is guarded by one RWMutex. Everything that changes
// its shape — Register, Inject, Expire, Retire, Fail, Revive — takes the
// write lock and is coordinator/monitor-only; the ordered index of the
// in-flight rumors (index.go) is maintained there and nowhere else.
// Everything a node does to its own holdings is a kernel of the read view
// (view.go), written once as a lock-free body: MarkIDs, MergeSummary,
// Digest, HeldCount, SnapshotRow, MergeRow. A caller either holds a View
// across many kernel calls — the simulator's coordinator takes one per round
// and its engine shards run the kernels under it; a free-running node takes
// one per node round — or uses the Set method of the same name where there
// is one, which is "take view → kernel → release". Kernels may run
// concurrently; writes to node i's row must come from i's owner (its
// goroutine or engine shard), mirroring the engines' callback contract — a
// node's holdings row has exactly one concurrent writer. Holdings bits are
// set with atomic Or under a view and cleared only under the write lock, so
// setters never race the clearing scan.
// A View must be released before its holder, or anyone it waits for, calls a
// table-changing method.
package rumorset

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// ID identifies one rumor in the unbounded stream. The zero value is a valid
// rumor ID; the phonecall bitmask tracker's RumorID is the dense [0,64)
// prefix of this space.
type ID uint32

// ErrFull reports that the in-flight window is exhausted: every slot holds an
// unconverged rumor, so injection must stall until GC reclaims one. Callers
// test for it with errors.Is to implement backpressure.
var ErrFull = errors.New("rumorset: in-flight rumor window full")

// Set is the scalable rumor ledger: registered in-flight rumors, per-node
// holdings, and expiry/GC of converged rumors.
type Set struct {
	n     int // nodes
	cap   int // max in-flight rumors (slots)
	words int // ceil(cap/64): bit words per node row

	mu     sync.RWMutex
	ix     index    // the in-flight rumors: sorted IDs, slot↔rank, ID→slot, slot runs
	free   []uint64 // free slots as a row mask: bit s set while slot s is free
	failed []bool   // per node; written under mu, read under RLock

	// held is the flat holdings arena: node i's row is
	// held[i*words : (i+1)*words], bit s of the row = slot s. Bits are set
	// and read with sync/atomic functions under RLock (any goroutine). Under
	// Lock no other goroutine is inside the arena, so expiry and revive clear
	// with plain loads and stores — which is why the words are not
	// atomic.Uint64: its Store is a locked exchange, and the column clear
	// touches every row. A mark sets one bit and nothing else: there is no
	// per-slot counter to bump, so the live-informed counts (AppendLive,
	// LiveInformed) are counted from the rows when asked for, and the
	// convergence authority of every engine is ScanConverged's AND of the
	// live rows.
	held []uint64

	acc      []uint64 // ScanConverged and Orphans scratch (monitor-only)
	expiring []uint64 // slots queued by the running expiry call, as a row mask

	injected  atomic.Int64
	converged atomic.Int64
	expired   atomic.Int64
	lost      atomic.Int64 // injects landing on currently-failed nodes
}

// Stats is a counter snapshot for reporting and telemetry.
type Stats struct {
	Active    int   // rumors currently in flight
	Injected  int64 // total registrations (stream injections)
	Converged int64 // rumors expired because every live node held them
	Expired   int64 // total slot reclamations (converged + forced)
	Lost      int64 // injects that landed on a failed node (revive erases them)
}

// New returns an empty set for n nodes with at most maxInFlight concurrently
// active rumors.
func New(n, maxInFlight int) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rumorset: need at least one node, got %d", n)
	}
	if maxInFlight <= 0 {
		return nil, fmt.Errorf("rumorset: need a positive in-flight window, got %d", maxInFlight)
	}
	words := (maxInFlight + 63) / 64
	s := &Set{
		n:        n,
		cap:      maxInFlight,
		words:    words,
		ix:       newIndex(maxInFlight),
		free:     make([]uint64, words),
		failed:   make([]bool, n),
		held:     make([]uint64, n*words),
		acc:      make([]uint64, words),
		expiring: make([]uint64, words),
	}
	for sl := 0; sl < maxInFlight; sl++ {
		s.free[sl>>6] |= 1 << (sl & 63)
	}
	return s, nil
}

// Nodes returns the node count.
func (s *Set) Nodes() int { return s.n }

// Words returns the length of one holdings row in 64-bit words — the size of
// the buffer SnapshotRow fills and MergeRow reads.
func (s *Set) Words() int { return s.words }

// row returns node's holdings row.
func (s *Set) row(node int) []uint64 { return s.held[node*s.words : (node+1)*s.words] }

// Register makes the rumor active, assigning it a slot. Registering an
// already-active ID is a no-op. A previously-expired ID may be re-registered:
// it gets a slot with a clear column (re-injection of a converged rumor
// is a new epoch of that rumor). Returns ErrFull when the window is
// exhausted. Coordinator-only.
func (s *Set) Register(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.register(id)
	return err
}

// register returns the rumor's slot, assigning one if the ID is not active:
// its home slot, ID mod window, when that slot is free, else the next free
// slot above it (cyclically).
func (s *Set) register(id ID) (int, error) {
	if sl, ok := s.ix.lookup(id); ok {
		return sl, nil
	}
	if len(s.ix.sorted) == s.cap {
		return 0, fmt.Errorf("%w (cap %d)", ErrFull, s.cap)
	}
	sl := s.freeSlot(int(uint64(id) % uint64(s.cap)))
	s.free[sl>>6] &^= 1 << (sl & 63)
	s.ix.insert(id, sl) // a free slot's column is clear: finishExpiry left it so
	s.injected.Add(1)
	return sl, nil
}

// freeSlot returns the first free slot at or above home, wrapping past the
// window's end. The caller guarantees a slot is free.
func (s *Set) freeSlot(home int) int {
	if x := s.free[home>>6] >> (home & 63); x != 0 {
		return home + bits.TrailingZeros64(x)
	}
	for k := 1; ; k++ {
		w := (home>>6 + k) % len(s.free)
		if x := s.free[w]; x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
}

// Inject registers the rumor and marks node as holding it. Injecting at a
// currently-failed node still sets the bit (mirroring the bitmask tracker)
// but counts as lost, because Revive erases it again. Coordinator-only.
func (s *Set) Inject(node int, id ID) error {
	if node < 0 || node >= s.n {
		return fmt.Errorf("rumorset: inject node %d outside [0,%d)", node, s.n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, err := s.register(id)
	if err != nil {
		return err
	}
	if s.failed[node] {
		s.lost.Add(1)
	}
	s.markLocked(node, sl)
	return nil
}

// markLocked sets the holdings bit for (node, slot). Caller holds mu (either
// mode).
func (s *Set) markLocked(node, sl int) {
	atomic.OrUint64(&s.held[node*s.words+sl>>6], 1<<(sl&63))
}

// Mark records that node holds the rumor. Unknown (never-registered or
// already-expired) IDs are ignored — this is the ABA guard for stale wire
// summaries. Callable from node's owner goroutine only.
func (s *Set) Mark(node int, id ID) {
	s.mu.RLock()
	if sl, ok := s.ix.lookup(id); ok {
		s.markLocked(node, sl)
	}
	s.mu.RUnlock()
}

// MarkIDs is the read view's MarkIDs under a view of its own.
func (s *Set) MarkIDs(node int, ids []ID) int {
	v := s.View()
	fresh := v.MarkIDs(node, ids)
	v.Release()
	return fresh
}

// Has reports whether node currently holds the (active) rumor.
func (s *Set) Has(node int, id ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl, ok := s.ix.lookup(id)
	if !ok {
		return false
	}
	return atomic.LoadUint64(&s.held[node*s.words+sl>>6])&(1<<(sl&63)) != 0
}

// LiveInformed returns the number of live nodes holding the rumor, or 0 for
// inactive IDs: the column count of its slot's pass.
func (s *Set) LiveInformed(id ID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl, ok := s.ix.lookup(id)
	if !ok {
		return 0
	}
	var c columnCount
	s.countColumns(&c, sl>>6&^(countWords-1))
	return c.of[sl&(countWords*64-1)]
}

// AppendLive appends every in-flight rumor's ID to ids and its live-informed
// count to live, ascending by ID, under one lock: one column count over the
// live nodes' rows. Safe for concurrent callers: its counters are its own.
func (s *Set) AppendLive(ids []ID, live []int) ([]ID, []int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids = append(ids, s.ix.sorted...)
	at := len(live)
	live = slices.Grow(live, len(s.ix.sorted))[:at+len(s.ix.sorted)] // every rank is written below
	var c columnCount
	for w0 := 0; w0 < s.words; w0 += countWords {
		s.countColumns(&c, w0)
		lo := w0 << 6
		for sl := lo; sl < min(lo+countWords*64, s.cap); sl++ {
			if r := s.ix.rankOf[sl]; r != noRank {
				live[at+int(r)] = c.of[sl-lo]
			}
		}
	}
	return ids, live
}

// AppendHeld appends the sorted IDs of every active rumor node holds to dst
// and returns the extended slice. Sorted ascending so the result feeds
// AppendSummary directly. Callable from any node goroutine.
func (s *Set) AppendHeld(dst []ID, node int) []ID {
	v := s.View()
	dst, _ = s.walk(dst, s.row(node), true)
	v.Release()
	return dst
}

// HeldCount is the read view's HeldCount under a view of its own.
func (s *Set) HeldCount(node int) int {
	v := s.View()
	c := v.HeldCount(node)
	v.Release()
	return c
}

// Active returns the number of in-flight rumors.
func (s *Set) Active() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ix.sorted)
}

// Snapshot returns the current counters.
func (s *Set) Snapshot() Stats {
	return Stats{
		Active:    s.Active(),
		Injected:  s.injected.Load(),
		Converged: s.converged.Load(),
		Expired:   s.expired.Load(),
		Lost:      s.lost.Load(),
	}
}

// Expire reclaims the rumors' slots without requiring convergence (forced
// GC). Inactive IDs are ignored. Coordinator/monitor-only.
func (s *Set) Expire(ids ...ID) { s.expire(ids, false) }

// Retire expires the rumors, counting them as converged — for callers that
// detected convergence themselves (the scenario driver's completion scan, the
// free-running monitor's ScanConverged). Inactive IDs are ignored.
// Coordinator/monitor-only.
func (s *Set) Retire(ids ...ID) { s.expire(ids, true) }

func (s *Set) expire(ids []ID, wasConverged bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued := 0
	for _, id := range ids {
		// The table still lists a rumor queued earlier in this call; its
		// cleared rank is what makes a repeated ID miss.
		if sl, ok := s.ix.lookup(id); ok && s.ix.rankOf[sl] != noRank {
			s.queueExpiry(sl)
			queued++
		}
	}
	s.finishExpiry(queued, wasConverged)
}

// queueExpiry frees an active slot and queues its bit column for the clearing
// pass of finishExpiry, which the caller runs before releasing the write
// lock.
func (s *Set) queueExpiry(sl int) {
	s.ix.rankOf[sl] = noRank
	s.expiring[sl>>6] |= 1 << (sl & 63)
	s.free[sl>>6] |= 1 << (sl & 63)
}

// finishExpiry completes an expiry call that queued the given number of
// rumors: one compaction of the index, one pass over the arena clearing every
// queued column — not one pass per rumor. The write lock excludes every
// setter, so the pass uses plain loads and stores.
func (s *Set) finishExpiry(queued int, wasConverged bool) {
	if queued == 0 {
		return
	}
	s.ix.compact()
	for node := 0; node < s.n; node++ {
		row := s.row(node)
		for w, mask := range s.expiring {
			row[w] &^= mask
		}
	}
	clear(s.expiring)
	s.expired.Add(int64(queued))
	if wasConverged {
		s.converged.Add(int64(queued))
	}
}

// ScanConverged returns the IDs of in-flight rumors held by every node for
// which isLive reports true, in slot order. It is the convergence authority
// of every engine — the scenario driver's round close and the free-running
// monitor alike: it ANDs the holdings rows of the live nodes word-wise, so
// its cost is the rows' words, however many bits they hold. Rumors with zero
// live nodes are not reported. The caller expires the returned IDs with
// Retire, which counts them as converged. Monitor-only (the scratch
// accumulator is not reentrant).
func (s *Set) ScanConverged(dst []ID, isLive func(node int) bool) []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acc := s.acc
	for w := range acc {
		acc[w] = ^uint64(0)
	}
	liveNodes := 0
	for node := 0; node < s.n; node++ {
		if !isLive(node) {
			continue
		}
		liveNodes++
		row := s.held[node*s.words:][:len(acc)] // one bounds check a row, none a word
		for w := range row {
			acc[w] &= atomic.LoadUint64(&row[w])
		}
	}
	if liveNodes == 0 {
		return dst
	}
	for w, word := range acc {
		for ; word != 0; word &= word - 1 {
			// Only active slots have bits in any row, so both tests are
			// guards: on the last word's bits beyond the window, and on a
			// slot without a rank.
			if sl := w<<6 + bits.TrailingZeros64(word); sl < s.cap && s.ix.rankOf[sl] != noRank {
				dst = append(dst, s.ix.sorted[s.ix.rankOf[sl]])
			}
		}
	}
	return dst
}

// Orphans appends to dst the IDs of the in-flight rumors no live node holds
// and returns the extended slice. Such a rumor cannot spread from the set's
// holders any more — they all failed, and a failed node rejoins uninformed —
// and it never converges, so it holds its window slot until someone injects
// it again. Monitor-only (the scratch accumulator is not reentrant).
func (s *Set) Orphans(dst []ID) []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	acc := s.acc
	clear(acc)
	for node := 0; node < s.n; node++ {
		if s.failed[node] {
			continue
		}
		row := s.held[node*s.words:][:len(acc)]
		for w := range row {
			acc[w] |= atomic.LoadUint64(&row[w])
		}
	}
	for r, sl := range s.ix.slotAt {
		if s.acc[sl>>6]&(1<<(sl&63)) == 0 {
			dst = append(dst, s.ix.sorted[r])
		}
	}
	return dst
}

// Fail marks nodes failed: their rows stop counting in AppendLive and
// LiveInformed (mirroring phonecall.RumorTracker.Fail) but keep their bits
// until Revive. Already-failed and out-of-range indexes are ignored.
// Coordinator/monitor-only.
func (s *Set) Fail(nodes ...int) {
	s.mu.Lock()
	for _, node := range nodes {
		if node < 0 || node >= s.n || s.failed[node] {
			continue
		}
		s.failed[node] = true
	}
	s.mu.Unlock()
}

// Revive rejoins failed nodes in the uninformed state: their holdings are
// cleared (rejoin-uninformed, like the bitmask tracker). Live and
// out-of-range indexes are ignored. Coordinator/monitor-only.
func (s *Set) Revive(nodes ...int) {
	s.mu.Lock()
	for _, node := range nodes {
		if node < 0 || node >= s.n || !s.failed[node] {
			continue
		}
		s.failed[node] = false
		clear(s.row(node))
	}
	s.mu.Unlock()
}
