package main

import (
	"fmt"

	"repro"
)

// workload is one benchmark workload: a fixed number of identical-shape
// repro.Run operations over generated inputs. Sizes are fields so the tests
// can run every workload at toy size through the same code.
type workload struct {
	name string
	n    int
	// seedCount is S: operation i runs with execution seed S0+1+(i mod S),
	// so a seed repeats within a run and the simulator's determinism is
	// checked on it.
	seedCount int
	// warmup is W, the untimed operations before the timed loop.
	warmup int
	// minOps is the fixed number of timed operations every run performs and
	// takes its count metrics from; --seconds only adds timing samples
	// beyond it.
	minOps int
	// exact marks the simulator workloads, whose counts must repeat exactly
	// for a repeated seed.
	exact bool

	// rumors and roundBudget shape sim-scenario-many; stream* shape
	// live-stream-chan.
	rumors       int
	perRound     int
	window       int
	roundBudget  int
	streamRate   float64
	streamTotal  int
	streamWindow int

	// inputs generates everything the program under test receives except
	// the per-operation seed, as a pure function of the run seed S0.
	inputs func(w *workload, s0 uint64) ([]repro.Option, error)
	// check validates one finished operation.
	check func(w *workload, rep repro.Report) error
	// rounds extracts the operation's protocol-time latency (the `rounds`
	// metric).
	rounds func(rep repro.Report) float64
}

// seed returns the execution seed of operation i (warm-up operations count
// from 0 like the timed ones, so the first timed operation repeats the
// first warm-up seed).
func (w *workload) seed(s0 uint64, i int) uint64 {
	return s0 + 1 + uint64(i%w.seedCount)
}

// splitmix64 derives independent generator values from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func completionRound(rep repro.Report) float64 { return float64(rep.CompletionRound) }

func checkAllInformed(_ *workload, rep repro.Report) error {
	if !rep.AllInformed {
		return fmt.Errorf("informed %d of %d live nodes", rep.Informed, rep.Live)
	}
	return nil
}

// workloads returns the four benchmark workloads at full size. Names are
// final; later issues cite them.
func workloads() []workload {
	return []workload{
		{
			// why: the paper's headline algorithm at the largest n that
			// fits; internal/phonecall's round passes are ~83% of CPU with
			// the cluster/core closures inside them, and peak memory is set
			// here. rumorset, policy and live do nothing.
			name: "sim-cluster2-1m", n: 1_000_000, seedCount: 3, warmup: 1,
			minOps: 3, exact: true,
			inputs: func(*workload, uint64) ([]repro.Option, error) {
				return []repro.Option{repro.WithAlgorithm(repro.AlgoCluster2), repro.OnSimulator()}, nil
			},
			check:  checkAllInformed,
			rounds: completionRound,
		},
		{
			// why: the simulator's wide path — 1 024 rumors over a WAN/LAN
			// topology with a weighted policy and 2% call loss;
			// internal/rumorset is ~75% of CPU (MarkIDs, AppendHeld), the
			// engine ~15%, policy.SelectPeer ~2%. The reverse of
			// sim-cluster2-1m.
			name: "sim-scenario-many", n: 16_384, seedCount: 3, warmup: 1,
			minOps: 3, exact: true,
			rumors: 1024, perRound: 32, window: 1024, roundBudget: 70,
			inputs: manyInputs,
			check:  manyCheck,
			rounds: func(rep repro.Report) float64 {
				var sum float64
				for _, r := range rep.Rumors {
					sum += float64(r.CompletionRound - r.InjectRound)
				}
				return sum / float64(len(rep.Rumors))
			},
		},
		{
			// why: the narrow live path — one rumor, 64-bit holdings, one
			// frame allocation per send; the only workload where
			// internal/live itself (FreeRun.doRound, mesh send, mailbox,
			// skew wait) does most of the work, and short operations make
			// the facade's prologue and teardown visible. rumorset is idle.
			name: "live-bcast-chan", n: 4096, seedCount: 1 << 20, warmup: 20,
			minOps: 200,
			inputs: func(w *workload, s0 uint64) ([]repro.Option, error) {
				origin := int(splitmix64(s0) % uint64(w.n))
				return []repro.Option{
					repro.WithAlgorithm(repro.AlgoPushPull),
					repro.OnFreeRunning(0, 0),
					repro.WithTransport(repro.TransportChannel),
					repro.WithRumors(repro.InjectRumor{At: 1, Node: origin, Rumor: 0}),
				}, nil
			},
			check:  checkAllInformed,
			rounds: completionRound,
		},
		{
			// why: service mode — a 4 096-rumor stream through a 256-slot
			// window on 1 024 goroutines: concurrent rumorset marks (~46% of
			// CPU), summary encode/decode on the wire (~17%), the
			// ScanConverged→Retire GC every monitor tick (~11%) and window
			// back-pressure. The same rumorset layer as sim-scenario-many,
			// used concurrently.
			name: "live-stream-chan", n: 1024, seedCount: 6, warmup: 1,
			minOps:     6,
			streamRate: 8, streamTotal: 4096, streamWindow: 256,
			inputs: func(w *workload, _ uint64) ([]repro.Option, error) {
				return []repro.Option{
					repro.WithAlgorithm(repro.AlgoPushPull),
					repro.OnFreeRunning(0, 0),
					repro.WithTransport(repro.TransportChannel),
					repro.WithRumorStream(w.streamRate, w.streamTotal, w.streamWindow),
				}, nil
			},
			check: func(w *workload, rep repro.Report) error {
				if rep.RumorsConverged != int64(w.streamTotal) || rep.RumorsActive != 0 {
					return fmt.Errorf("stream converged %d of %d rumors, %d still active",
						rep.RumorsConverged, w.streamTotal, rep.RumorsActive)
				}
				return nil
			},
			rounds: func(rep repro.Report) float64 { return float64(rep.Rounds) },
		},
	}
}

// toyWorkloads returns every workload shrunk to run in well under a second:
// the same generators, checks and metrics at n <= 2048. The tests run them,
// and a traced run takes from them the rows of the layers its own workload
// does not cross.
func toyWorkloads() []workload {
	ws := workloads()
	for i := range ws {
		w := &ws[i]
		w.warmup = 1
		w.seedCount = 2
		switch w.name {
		case "sim-cluster2-1m":
			w.n = 2048
		case "sim-scenario-many":
			w.n, w.rumors, w.perRound, w.window, w.roundBudget = 1024, 64, 8, 64, 40
		case "live-bcast-chan":
			w.n = 512
		case "live-stream-chan":
			w.n, w.streamTotal, w.streamWindow = 256, 128, 32
		}
	}
	return ws
}

// manyInputs generates sim-scenario-many's topology, policy and timeline:
// rumor id is injected in round 1+id/perRound at a node spread over the
// network by a stride coprime to n, rotated by the run seed; the call-loss
// stream is seeded from the run seed as well.
func manyInputs(w *workload, s0 uint64) ([]repro.Option, error) {
	topo, err := repro.WanLanTopology(w.n, 8)
	if err != nil {
		return nil, err
	}
	offset := int(splitmix64(s0) % uint64(w.n))
	events := make([]repro.TimelineEvent, 0, w.rumors+1)
	events = append(events, repro.LossAt{At: 1, Rate: 0.02, Seed: splitmix64(s0 ^ 7)})
	for id := 0; id < w.rumors; id++ {
		events = append(events, repro.InjectRumor{
			At:    1 + id/w.perRound,
			Node:  (id*7919 + offset) % w.n,
			Rumor: id,
		})
	}
	return []repro.Option{
		repro.WithAlgorithm(repro.AlgoPushPull),
		repro.OnSimulator(),
		repro.WithTimeline(events...),
		repro.WithTopology(topo),
		repro.WithPolicy(repro.Policy{Weights: repro.PolicyWeights{SameZone: 2, Capacity: 1, Latency: 0.5}}),
		repro.WithMaxInFlight(w.window),
		repro.WithRounds(w.roundBudget),
	}, nil
}

func manyCheck(w *workload, rep repro.Report) error {
	if len(rep.Rumors) != w.rumors {
		return fmt.Errorf("%d rumor outcomes, want %d", len(rep.Rumors), w.rumors)
	}
	for _, r := range rep.Rumors {
		if r.CompletionRound == 0 {
			return fmt.Errorf("rumor %d never completed within %d rounds", r.Rumor, w.roundBudget)
		}
	}
	if rep.RumorsExpired != int64(w.rumors) {
		return fmt.Errorf("%d rumors expired, want %d", rep.RumorsExpired, w.rumors)
	}
	return nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
