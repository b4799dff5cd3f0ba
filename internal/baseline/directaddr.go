package baseline

import (
	"math"

	"repro/internal/phonecall"
	"repro/internal/trace"
)

// Message tags used by the direct-addressing baselines.
const (
	tagHarvest uint8 = 110 + iota
	tagKnowledge
)

// AddressBook is the direct-addressing gossip baseline standing in for the
// Avin–Elsässer algorithm [DISC 2013, reference 1 of the paper], whose exact
// construction is published in a separate paper that is not part of this
// reproduction (see DESIGN.md, substitution table). The stand-in reproduces
// the resource profile of their Theorem 1 — Θ(√log n) messages per node of
// Θ(√log n · log n) bits spent on learning addresses, followed by a
// direct-addressing spread — so the paper's comparison of message- and
// bit-complexity against Cluster2 is exercised; its measured round count
// falls between PUSH-PULL and Cluster2 rather than meeting their O(√log n)
// bound, which requires the original construction.
//
// Phase 1 (address harvesting): for ⌈√log₂ n⌉ rounds every node pushes a
// sample of ⌈√log₂ n⌉ known IDs to a random node; everyone accumulates an
// address book of Θ(log n) random node IDs.
// Phase 2 (spreading): informed nodes push the rumor to unattempted address
// book entries (direct addressing), uninformed nodes pull from address book
// entries; both fall back to uniformly random targets when the book is
// exhausted.
func AddressBook(net *phonecall.Network, sources []int) (trace.Result, error) {
	st, err := newRumorState(net, sources)
	if err != nil {
		return trace.Result{}, err
	}
	n := net.N()
	k := int(math.Ceil(math.Sqrt(math.Log2(float64(n) + 2))))
	if k < 1 {
		k = 1
	}
	bookCap := k * k * 2

	book := make([][]phonecall.NodeID, n) // learned addresses, in arrival order
	attempted := make([]int, n)           // next unattempted index in book
	seen := make([]map[phonecall.NodeID]bool, n)
	for i := range seen {
		seen[i] = make(map[phonecall.NodeID]bool, bookCap)
	}
	addToBook := func(i int, id phonecall.NodeID) {
		if id == phonecall.NoNode || id == net.ID(i) || len(book[i]) >= bookCap || seen[i][id] {
			return
		}
		seen[i][id] = true
		book[i] = append(book[i], id)
	}

	rec := trace.NewRecorder(net)

	// Phase 1: harvest addresses.
	for round := 0; round < k; round++ {
		net.ExecCalls(
			func(int) phonecall.Call {
				return phonecall.Call{Kind: phonecall.Push, Target: phonecall.RandomTarget()}
			},
			func(i int) phonecall.Message {
				ids := make([]phonecall.NodeID, 0, k)
				ids = append(ids, net.ID(i))
				rng := net.NodeRNG(i)
				for len(ids) < k && len(book[i]) > 0 {
					ids = append(ids, book[i][rng.Intn(len(book[i]))])
				}
				return phonecall.Message{Tag: tagHarvest, IDs: ids}
			},
			nil,
			func(i int, inbox []phonecall.Message) {
				for _, m := range inbox {
					if m.Tag != tagHarvest {
						continue
					}
					for _, id := range m.IDs {
						addToBook(i, id)
					}
					addToBook(i, m.From)
				}
			},
		)
	}
	rec.Mark("harvest")

	// Phase 2: spread the rumor using direct addressing.
	nextTarget := func(i int) phonecall.Target {
		if attempted[i] < len(book[i]) {
			t := phonecall.DirectTarget(book[i][attempted[i]])
			attempted[i]++
			return t
		}
		return phonecall.RandomTarget()
	}
	for round := 0; round < maxUniformRounds(n) && !st.allInformed(); round++ {
		net.ExecCalls(
			func(i int) phonecall.Call {
				if st.has(i) {
					return phonecall.Call{Kind: phonecall.Push, Target: nextTarget(i)}
				}
				return phonecall.Call{Kind: phonecall.Pull, Target: nextTarget(i)}
			},
			func(int) phonecall.Message { return phonecall.Message{Tag: tagRumor, Rumor: true} },
			func(j int) (phonecall.Message, bool) {
				if !st.has(j) {
					return phonecall.Message{}, false
				}
				return phonecall.Message{Tag: tagRumor, Rumor: true}, true
			},
			func(i int, inbox []phonecall.Message) {
				for _, m := range inbox {
					if m.Rumor {
						st.mark(i)
					}
					addToBook(i, m.From)
				}
			},
		)
	}
	rec.Mark("spread")
	return trace.Summarize("addressbook", net, st.liveInformed(), rec.Phases()), nil
}
