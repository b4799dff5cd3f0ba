package phonecall

import "sync/atomic"

// NodeSet is a set of node indexes as a bitmap: node i is bit i&63 of word
// i>>6. It is the form of ExecCalls' initiator set, and the protocols keep
// their own per-node flags in it, so that the set of a round is a few word
// operations away. A word covers 64 consecutive nodes, and the engine's
// shards span whole words, so a shard's callbacks touch only the shard's
// words.
type NodeSet []uint64

// NewNodeSet returns an empty set over n nodes.
func NewNodeSet(n int) NodeSet { return make(NodeSet, (n+63)>>6) }

// Has reports whether node i is in the set. The read is atomic, so a
// node's callbacks may read a bit of a word that other nodes' callbacks Put
// to in the same round.
func (s NodeSet) Has(i int) bool { return atomic.LoadUint64(&s[i>>6])&(1<<(i&63)) != 0 }

// Put adds node i to the set (v) or removes it. The write is atomic, so the
// callbacks of nodes that share a word may call it concurrently: the
// lock-step runtime runs every node on its own goroutine.
func (s NodeSet) Put(i int, v bool) {
	if v {
		atomic.OrUint64(&s[i>>6], 1<<(i&63))
	} else {
		atomic.AndUint64(&s[i>>6], ^uint64(1<<(i&63)))
	}
}
