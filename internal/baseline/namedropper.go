package baseline

import (
	"math"

	"repro/internal/phonecall"
	"repro/internal/trace"
)

// NameDropperResult extends the broadcast result with resource-discovery
// specific outcomes.
type NameDropperResult struct {
	trace.Result
	// EveryoneKnowsSource reports whether every live node learned the source's ID.
	EveryoneKnowsSource bool
	// AverageKnown is the average number of IDs known per live node at the end.
	AverageKnown float64
}

// NameDropper runs the Name-Dropper resource-discovery protocol of
// Harchol-Balter, Leighton and Lewin [PODC 1999, reference 9 of the paper]:
// starting from a weakly connected initial knowledge graph (here a directed
// ring), every node repeatedly forwards all IDs it knows to a random node it
// knows. The protocol completes (every node knows every other) in O(log² n)
// rounds; here we run it until every node knows the ID of sources[0], which
// is the broadcast-equivalent termination condition, or until the round cap.
//
// Knowledge sets are Θ(n) per node, so this baseline is only exercised at
// small n (it is a rounds-comparison baseline, not a message-efficiency one).
func NameDropper(net *phonecall.Network, sources []int) (NameDropperResult, error) {
	st, err := newRumorState(net, sources)
	if err != nil {
		return NameDropperResult{}, err
	}
	n := net.N()
	sourceID := net.ID(sources[0])

	known := make([]map[phonecall.NodeID]bool, n)
	list := make([][]phonecall.NodeID, n)
	add := func(i int, id phonecall.NodeID) {
		if id == phonecall.NoNode || id == net.ID(i) || known[i][id] {
			return
		}
		known[i][id] = true
		list[i] = append(list[i], id)
	}
	for i := 0; i < n; i++ {
		known[i] = make(map[phonecall.NodeID]bool)
		add(i, net.ID((i+1)%n)) // initial topology: directed ring
	}

	knowsSource := func(i int) bool { return i == sources[0] || known[i][sourceID] }
	allKnow := func() bool {
		for i := 0; i < n; i++ {
			if !net.IsFailed(i) && !knowsSource(i) {
				return false
			}
		}
		return true
	}

	rec := trace.NewRecorder(net)
	maxRounds := int(2*math.Pow(math.Log2(float64(n)), 2)) + 20
	for round := 0; round < maxRounds && !allKnow(); round++ {
		net.ExecCalls(
			func(i int) phonecall.Call {
				if len(list[i]) == 0 {
					return phonecall.Call{}
				}
				target := list[i][net.NodeRNG(i).Intn(len(list[i]))]
				return phonecall.Call{Kind: phonecall.Push, Target: phonecall.DirectTarget(target)}
			},
			func(i int) phonecall.Message {
				ids := append([]phonecall.NodeID{net.ID(i)}, list[i]...)
				return phonecall.Message{Tag: tagKnowledge, IDs: ids}
			},
			nil,
			func(i int, inbox []phonecall.Message) {
				for _, m := range inbox {
					if m.Tag != tagKnowledge {
						continue
					}
					for _, id := range m.IDs {
						add(i, id)
					}
					add(i, m.From)
				}
			},
		)
		for i := 0; i < n; i++ {
			if !net.IsFailed(i) && knowsSource(i) {
				st.mark(i)
			}
		}
	}
	rec.Mark("name-dropper")

	totalKnown := 0
	live := 0
	for i := 0; i < n; i++ {
		if net.IsFailed(i) {
			continue
		}
		live++
		totalKnown += len(list[i])
	}
	res := NameDropperResult{Result: trace.Summarize("name-dropper", net, st.liveInformed(), rec.Phases())}
	res.EveryoneKnowsSource = allKnow()
	if live > 0 {
		res.AverageKnown = float64(totalKnown) / float64(live)
	}
	return res, nil
}
