package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro"
)

// span is one timed interval of a traced operation or of a layer driver.
// Spans of one operation share Op; Parent 0 marks a root. Counts hold the
// work done inside the interval.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	Layer   string             `json:"layer"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	SelfNs  int64              `json:"self_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	ops    int
}

func newTracer() *tracer { return &tracer{origin: procStart} }

// newOp returns a fresh operation id.
func (tr *tracer) newOp() int {
	tr.ops++
	return tr.ops
}

func (tr *tracer) add(parent, op int, name, layer string, start, end time.Time, counts map[string]float64) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		StartNs: start.Sub(tr.origin).Nanoseconds(), EndNs: end.Sub(tr.origin).Nanoseconds(),
		Counts: counts,
	})
	return id
}

// finish computes every span's self time: its duration minus its children's.
func (tr *tracer) finish() {
	for i := range tr.spans {
		tr.spans[i].SelfNs = tr.spans[i].EndNs - tr.spans[i].StartNs
	}
	for _, s := range tr.spans {
		if s.Parent > 0 {
			tr.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
}

func (tr *tracer) writeFile(path string) error {
	tr.finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tick is one observer callback of the traced operation: a finished round on
// the simulator, a frontier advance on the free-running engine, with the
// telemetry registry's state at that moment.
type tick struct {
	at   time.Time
	info repro.RoundInfo
	// roundCount and roundSum are repro_round_duration_seconds' count and
	// sum (simulator): the engine's own measure of the rounds so far.
	roundCount, roundSum float64
	// messages and bits are repro_messages_total and repro_bits_total
	// summed over their label sets (free-running: frames on the wire).
	messages, bits float64
	// stream state (free-running stream mode).
	injected, converged, active float64
}

func sampleTick(at time.Time, info repro.RoundInfo, samples []repro.MetricSample) tick {
	t := tick{at: at, info: info}
	for _, s := range samples {
		switch s.Name {
		case "repro_round_duration_seconds_count":
			t.roundCount = s.Value
		case "repro_round_duration_seconds_sum":
			t.roundSum = s.Value
		case "repro_messages_total":
			t.messages += s.Value
		case "repro_bits_total":
			t.bits += s.Value
		case "repro_rumors_injected_total":
			t.injected = s.Value
		case "repro_rumors_converged_total":
			t.converged = s.Value
		case "repro_rumors_active":
			t.active = s.Value
		}
	}
	return t
}

var cluster2Phases = []string{
	"GrowInitialClusters", "SquareClusters", "MergeAllClusters",
	"BoundedClusterPush", "UnclusteredNodesPull", "ClusterShare",
}

// perLayerDefs lists every per-layer metric; the tests hold it equal to
// BENCHMARK.json. A traced run reports all of them on every workload: the
// rows of a layer the workload does not cross read 0.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"run.prologue_s", "s", "lower", false},
		{"run.epilogue_s", "s", "lower", false},
		{"run.cpu_s_per_op", "s", "lower", false},
		{"run.parallelism", "ratio", "higher", false},
		{"run.gc_pause_ms_per_op", "ms", "lower", false},
		{"phonecall.rounds", "rounds", "lower", false},
		{"phonecall.round_ms_p50", "ms", "lower", false},
		{"phonecall.round_ms_p99", "ms", "lower", false},
	}
	for _, p := range cluster2Phases {
		defs = append(defs, metricDef{"core.phase_s." + p, "s", "lower", false})
	}
	for _, p := range cluster2Phases {
		defs = append(defs, metricDef{"core.phase_rounds." + p, "rounds", "lower", false})
	}
	return append(defs, []metricDef{
		{"live.frontier_ticks", "count", "lower", false},
		{"live.tick_ms_p50", "ms", "lower", false},
		{"live.tick_ms_p99", "ms", "lower", false},
		{"live.frames_per_op", "count", "lower", false},
		{"live.frame_bytes_mean", "B", "lower", false},
		{"live.inject_to_converged_ms_p50", "ms", "lower", false},
		{"live.inject_to_converged_ms_p99", "ms", "lower", false},
		{"live.inject_to_converged_rounds_p50", "rounds", "lower", false},
		{"live.window_occupancy_mean", "ratio", "lower", false},
		{"live.injection_stalls", "count", "lower", false},
		{"bench.trace_overhead", "ratio", "lower", false},
		{"bench.traced_op_s", "s", "lower", false},
		{"bench.untraced_op_s", "s", "lower", false},
		{"bench.span_coverage", "ratio", "higher", false},
		{"bench.ref_kernel_ms", "ms", "lower", false},

		{"phonecall.new_ms", "ms", "lower", true},
		{"phonecall.random_peer_ns", "ns", "lower", true},
		{"phonecall.exec_round_push_ns_per_node", "ns", "lower", true},
		{"phonecall.exec_round_exchange_ns_per_node", "ns", "lower", true},
		{"phonecall.exec_round_allocs_per_round", "allocs", "lower", true},
		{"phonecall.tracker_mark_set_ns", "ns", "lower", true},
		{"rumorset.mark_ids_ns_per_id_r8", "ns", "lower", true},
		{"rumorset.mark_ids_ns_per_id", "ns", "lower", true},
		{"rumorset.append_held_ns_per_id", "ns", "lower", true},
		{"rumorset.scan_converged_us", "us", "lower", true},
		{"rumorset.retire_ns_per_id", "ns", "lower", true},
		{"rumorset.append_summary_ns_per_id", "ns", "lower", true},
		{"rumorset.decode_summary_ns_per_id", "ns", "lower", true},
		{"scenario.narrow_ns_per_node_round", "ns", "lower", true},
		{"policy.compile_ms", "ms", "lower", true},
		{"policy.select_peer_ns", "ns", "lower", true},
		{"policy.select_peer_allocs", "allocs", "lower", true},
		{"live.chan_send_drain_ns_per_frame", "ns", "lower", true},
		{"live.chan_send_drain_allocs_per_frame", "allocs", "lower", true},
		{"live.lockstep_round_us_per_node", "us", "lower", true},
		{"live.udp_send_drain_ns_per_frame", "ns", "lower", true},
		{"membership.closest_ns", "ns", "lower", true},
		{"membership.update_ns", "ns", "lower", true},
		{"membership.codec_roundtrip_ns", "ns", "lower", true},
		{"membership.ping_rtt_us", "us", "lower", true},
	}...)
}()

// perLayerUnit returns a declared per-layer metric's unit; an undeclared name
// is a bug in the benchmark.
func perLayerUnit(name string) string {
	for _, d := range perLayerDefs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: undeclared per-layer metric " + name)
}

// runTraced runs one more operation with the public hooks attached and
// returns the hook-derived per-layer metrics. End-to-end metrics never come
// from this operation; t, the untraced timed loop, is the base of the
// overhead. A row of a layer the workload's own operation does not cross (the
// Cluster2 phases on a push-pull workload, frontier ticks on the simulator,
// stream latency without a stream) is taken from a toy-size operation of the
// workload that does cross it, traced the same way: like the layer drivers'
// rows it is then a measurement of that layer and predicts nothing for this
// workload, and no row of a traced run is a constant.
func (s *session) runTraced(tr *tracer, t timed) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnit(name)} }
	wall := s.traceOp(tr, set)
	untraced := medianDuration(t.walls).Seconds()
	set("bench.traced_op_s", wall.Seconds())
	set("bench.untraced_op_s", untraced)
	set("bench.trace_overhead", wall.Seconds()/untraced-1)
	set("bench.ref_kernel_ms", (t.refBefore+t.refAfter)/2)
	set("run.cpu_s_per_op", t.cpuS/float64(len(t.walls)))
	set("run.parallelism", t.cpuS/t.loopS)
	set("run.gc_pause_ms_per_op", float64(t.gcPauseNs)/1e6/float64(len(t.walls)))

	setMissing := func(name string, v float64) {
		if _, ok := m[name]; !ok {
			set(name, v)
		}
	}
	for _, toy := range toyWorkloads() {
		if toy.name == s.w.name {
			continue
		}
		c := newSession(&toy, s.s0)
		if err := c.setUp(); err != nil {
			return nil, err
		}
		c.traceOp(tr, setMissing)
		s.attempted += c.attempted
		for _, f := range c.failures {
			s.failures = append(s.failures, "toy "+toy.name+" "+f)
		}
	}
	return m, nil
}

// traceOp runs the session's next operation with the public hooks attached —
// an observer timestamping every round or frontier tick and a telemetry
// registry snapshotted at each — turns what they saw into spans, reports the
// rows this operation can give through set, and returns its wall time.
func (s *session) traceOp(tr *tracer, set func(name string, v float64)) time.Duration {
	reg := repro.NewMetricsRegistry()
	var ticks []tick
	obs := func(info repro.RoundInfo) {
		ticks = append(ticks, sampleTick(time.Now(), info, reg.Snapshot()))
	}
	start := time.Now()
	rep, wall := s.op(repro.WithObserver(obs), repro.WithTelemetry(reg))
	end := start.Add(wall)

	op := tr.newOp()
	root := tr.add(0, op, "repro.Run", "run", start, end, map[string]float64{
		"rounds":   float64(rep.Rounds),
		"messages": float64(rep.Messages + rep.ControlMessages),
		"bits":     float64(rep.Bits),
	})
	if len(ticks) == 0 {
		return wall // the operation failed before its first round
	}

	// The first span starts where the prologue ends. The simulator's
	// telemetry times each round itself, which splits round 1 from the
	// prologue; the free-running engine reports its first frontier advance,
	// so the prologue runs up to it.
	simulator := rep.Engine == "simulator"
	first := ticks[0].at
	if simulator {
		for _, tk := range ticks {
			if tk.roundCount == 1 {
				if d := time.Duration(tk.roundSum * float64(time.Second)); d > 0 && ticks[0].at.Add(-d).After(start) {
					first = ticks[0].at.Add(-d)
				}
				break
			}
		}
	}
	last := ticks[len(ticks)-1].at
	tr.add(root, op, "prologue", "run", start, first, nil)
	tr.add(root, op, "epilogue", "run", last, end, nil)
	set("run.prologue_s", first.Sub(start).Seconds())
	set("run.epilogue_s", end.Sub(last).Seconds())
	covered := first.Sub(start) + end.Sub(last)

	// One span per round or tick, [previous callback, this callback]; on the
	// simulator they hang under the phase Result.Phases assigns the round to.
	layer, kind := "live", "tick"
	if simulator {
		layer, kind = "phonecall", "round"
	}
	startOf := func(k int) time.Time {
		if k == 0 {
			return first
		}
		return ticks[k-1].at
	}
	parentOf := make([]int, len(ticks))
	for k := range parentOf {
		parentOf[k] = root
	}
	phaseRounds := 0
	for _, p := range rep.Phases {
		phaseRounds += p.Rounds
	}
	if simulator && phaseRounds == len(ticks) {
		k := 0
		for _, p := range rep.Phases {
			if p.Rounds == 0 {
				if slices.Contains(cluster2Phases, p.Name) {
					set("core.phase_s."+p.Name, 0)
					set("core.phase_rounds."+p.Name, 0)
				}
				continue
			}
			from, to := startOf(k), ticks[k+p.Rounds-1].at
			id := tr.add(root, op, p.Name, "core", from, to, map[string]float64{
				"rounds": float64(p.Rounds), "messages": float64(p.Messages), "bits": float64(p.Bits),
			})
			for r := 0; r < p.Rounds; r++ {
				parentOf[k] = id
				k++
			}
			if slices.Contains(cluster2Phases, p.Name) {
				set("core.phase_s."+p.Name, to.Sub(from).Seconds())
				set("core.phase_rounds."+p.Name, float64(p.Rounds))
			}
		}
	}
	var durs []float64
	for k, tk := range ticks {
		if k == 0 && !simulator {
			continue // the prologue runs up to the first frontier advance
		}
		counts := map[string]float64{"round": float64(tk.info.Round)}
		if simulator {
			counts["messages"] = float64(tk.info.Messages)
			counts["bits"] = float64(tk.info.Bits)
		} else {
			counts["frames"] = tk.messages - ticks[k-1].messages
			counts["bits"] = tk.bits - ticks[k-1].bits
			counts["rounds"] = float64(tk.info.Round - ticks[k-1].info.Round)
			counts["rumors_active"] = tk.active
		}
		from := startOf(k)
		tr.add(parentOf[k], op, kind, layer, from, tk.at, counts)
		durs = append(durs, float64(tk.at.Sub(from).Nanoseconds())/1e6)
		covered += tk.at.Sub(from)
	}
	set("bench.span_coverage", covered.Seconds()/wall.Seconds())

	sort.Float64s(durs)
	if simulator {
		set("phonecall.rounds", float64(len(ticks)))
		set("phonecall.round_ms_p50", percentile(durs, 0.50))
		set("phonecall.round_ms_p99", percentile(durs, 0.99))
		return wall
	}
	frames := float64(rep.Messages + rep.ControlMessages)
	set("live.frontier_ticks", float64(len(ticks)))
	set("live.tick_ms_p50", percentile(durs, 0.50))
	set("live.tick_ms_p99", percentile(durs, 0.99))
	set("live.frames_per_op", frames)
	if frames > 0 {
		set("live.frame_bytes_mean", float64(rep.Bits)/8/frames)
	}
	if s.w.streamTotal > 0 {
		streamMetrics(set, ticks, s.w.streamWindow)
		set("live.injection_stalls", float64(rep.InjectionStalls))
	}
	return wall
}

// streamMetrics matches the k-th injected rumor to the k-th converged one
// from the injected/converged totals sampled at every tick: a rumor's
// latency runs from the first tick that counted it injected to the first
// that counted it converged.
func streamMetrics(set func(string, float64), ticks []tick, window int) {
	var ms, rounds []float64
	var occupancy float64
	last := len(ticks) - 1
	inj, conv := 0, 0
	for k := 1.0; k <= ticks[last].converged; k++ {
		for inj < last && ticks[inj].injected < k {
			inj++
		}
		for conv < last && ticks[conv].converged < k {
			conv++
		}
		ms = append(ms, float64(ticks[conv].at.Sub(ticks[inj].at).Nanoseconds())/1e6)
		rounds = append(rounds, float64(ticks[conv].info.Round-ticks[inj].info.Round))
	}
	for _, tk := range ticks {
		occupancy += tk.active / float64(window)
	}
	sort.Float64s(ms)
	sort.Float64s(rounds)
	set("live.inject_to_converged_ms_p50", percentile(ms, 0.50))
	set("live.inject_to_converged_ms_p99", percentile(ms, 0.99))
	set("live.inject_to_converged_rounds_p50", percentile(rounds, 0.50))
	set("live.window_occupancy_mean", occupancy/float64(len(ticks)))
}

// percentile is the nearest-rank percentile of sorted values (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
