package baseline

import (
	"math"

	"repro/internal/phonecall"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Message tags shared by the baseline protocols.
const (
	// tagRumor marks messages that carry the rumor.
	tagRumor uint8 = 101
	// tagStatus marks rumor-free status messages (used by the median-counter
	// algorithm's retired nodes).
	tagStatus uint8 = 102
)

// fixedBudget is the number of rounds the classical protocols run: in the
// random phone call model nodes cannot detect global completion, so the
// protocols execute a fixed Θ(log n) budget. The round at which every node
// was actually informed is reported as CompletionRound.
func fixedBudget(n int) int { return int(math.Ceil(math.Log2(float64(n)))) + 15 }

// Uniform runs one of the classical uniform protocols for the fixed budget,
// each node round read off scenario's decision table (Algorithm.Step):
//   - PUSH: every informed node pushes the rumor to a uniformly random node;
//     Θ(log n) rounds and Θ(log n) messages per node [Pittel 1987].
//   - PULL: every uninformed node pulls from a uniformly random node and
//     learns the rumor if the responder holds it.
//   - PUSH-PULL: every node calls a uniformly random node and the rumor
//     travels in both directions over the call — the Θ(log n)-round baseline
//     whose "log n barrier" the paper breaks.
func Uniform(net *phonecall.Network, sources []int, algo scenario.Algorithm) (trace.Result, error) {
	algo, err := algo.OrDefault()
	if err != nil {
		return trace.Result{}, err
	}
	st, err := newRumorState(net, sources)
	if err != nil {
		return trace.Result{}, err
	}
	call, payload, respond, deliver := algo.Step(st.has, st.mark, phonecall.Message{Tag: tagRumor, Rumor: true})
	// A protocol whose informed nodes stay silent (PULL) sends nothing once
	// every live node is informed, so its idle tail is skipped without
	// changing any reported quantity. The others keep transmitting for the
	// full budget, exactly as the model prescribes.
	done, _ := algo.Call(false, true)
	idleWhenDone := done.Kind == phonecall.None
	rec := trace.NewRecorder(net)
	completion := 0
	budget := fixedBudget(net.N())
	for r := 0; r < budget; r++ {
		if idleWhenDone && st.allInformed() {
			break
		}
		net.ExecCalls(nil, call, payload, respond, deliver)
		if completion == 0 && st.allInformed() {
			completion = net.Metrics().Rounds
		}
	}
	name := string(algo)
	rec.Mark(name)
	res := trace.Summarize(name, net, st.liveInformed(), rec.Phases())
	if completion > 0 {
		res.CompletionRound = completion
	}
	return res, nil
}
