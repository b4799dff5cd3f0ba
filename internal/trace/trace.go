// Package trace defines the one outcome type of this repository — the
// paper's round-, message- and bit-complexity figures plus whatever extras a
// workload produced, filled directly by every engine — and a small helper for
// recording per-phase costs. It is the leaf every engine package, the run
// layer and the frontends share, which is why the type lives here.
package trace

import (
	"fmt"
	"time"

	"repro/internal/phonecall"
)

// Phase records the cost of one named phase of an execution.
type Phase struct {
	Name     string
	Rounds   int
	Messages int64
	Bits     int64
}

// RumorCount is a per-rumor live-informed count inside a phase report.
type RumorCount struct {
	Rumor        phonecall.RumorID
	LiveInformed int
}

// PhaseReport summarizes the rounds between two timeline events: the
// traffic, the live population, and how far every rumor had spread when the
// phase ended.
type PhaseReport struct {
	// FromRound..ToRound is the inclusive round span of the phase.
	FromRound, ToRound int
	// Events describes the timeline events that opened the phase.
	Events []string
	// Live is the live node count during the phase (constant: membership
	// only changes at phase boundaries).
	Live int
	// Messages counts payload and control messages sent within the phase;
	// Bits is their total size; MaxComms is the phase's Δ.
	Messages int64
	Bits     int64
	MaxComms int
	// Informed holds, per registered rumor, the live informed count at the
	// end of the phase.
	Informed []RumorCount
}

// RumorOutcome is the final state of one rumor.
type RumorOutcome struct {
	Rumor phonecall.RumorID
	// InjectRound is the round at which the rumor was first injected.
	InjectRound int
	// LiveInformed and LiveFraction report how many live nodes held the
	// rumor when the budget ran out.
	LiveInformed int
	LiveFraction float64
	// CompletionRound is the first round at whose end every live node held
	// the rumor (0 if that never happened within the budget).
	CompletionRound int
}

// Result is the outcome of one execution, on any engine and workload: the
// closed algorithms (through Summarize), the scenario driver and the
// free-running runtime each fill it in place, and run.Execute hands it to the
// frontends unchanged. Fields an engine has no notion of stay zero.
type Result struct {
	Algorithm string
	N         int
	Seed      uint64
	// Engine names the substrate ("simulator", "lock-step", "free-running");
	// run.Execute stamps it.
	Engine string
	// PayloadBits is the rumor size b every payload was charged (the spec's,
	// or the default); run.Execute stamps it.
	PayloadBits int

	// Complexity measures (the quantities of Theorems 1, 2, 9, 18). On the
	// free-running engine Rounds is the furthest local clock and
	// MaxCommsPerRound the most communications of any node in one of its
	// local rounds.
	Rounds           int
	Messages         int64
	ControlMessages  int64
	Bits             int64
	MessagesPerNode  float64
	MaxCommsPerRound int

	// CompletionRound is the first round by which every live node was
	// informed. For self-terminating algorithms it equals Rounds; protocols
	// that (faithfully to their model) keep running for their full fixed round
	// budget report the earlier completion time here. A multi-rumor scenario
	// reports the last rumor's completion (0 unless every rumor completed),
	// the free-running engine the frontier at the first monitor pass to see
	// convergence, which the informing round woke (0 = never); on both, the
	// first completion is recorded — later churn (a joiner arriving
	// uninformed) does not clear it.
	CompletionRound int

	// Live is the final live population. Informed counts the live nodes that
	// hold the rumor — on multi-rumor workloads the worst-spread rumor
	// (scenario driver) or every injected rumor (free-running). AllInformed is
	// Converged over the two, which workloads that record completions extend:
	// a scenario whose every rumor completed stays all-informed when joiners
	// arrive afterwards.
	Live        int
	Informed    int
	AllInformed bool

	// Phases is the closed algorithms' named per-phase breakdown.
	Phases []Phase

	// Scenario, Rumors and ScenarioPhases are filled by the scenario driver:
	// the scenario's name, the final per-rumor outcomes ordered by rumor ID,
	// and the event-delimited per-phase trace.
	Scenario       string
	Rumors         []RumorOutcome
	ScenarioPhases []PhaseReport

	// Free-running extras. Drops counts the channel transport's loss
	// injections; UnfiredEvents the timeline events past the final frontier;
	// IgnoredEvents the events the runtime could not honor (for example a
	// Loss event on a transport without loss injection); Wall is the
	// end-to-end execution time.
	Drops         int64
	UnfiredEvents int
	IgnoredEvents int
	Wall          time.Duration
	// SendFailures counts frames the transport could not hand to the OS (UDP
	// frames over one datagram and write errors); NodeSendFailures maps the
	// failing sender indexes to their counts and is nil when nothing failed.
	SendFailures     int64
	NodeSendFailures map[int]int64

	// Rumor-set counters (wide scenario runs and free-running streams).
	// LostInjects counts injections that landed on a currently-failed node:
	// the rumor is held until the node restarts, at which point the
	// rejoin-uninformed semantics erase it — without this counter such an
	// event would be a silent no-op. RumorsExpired counts the converged rumors
	// GC retired to recycle their window slots (0 on the bitmask path, which
	// never expires). The rest is stream-only: registrations and convergences
	// over the stream's life, the rumors still in flight at the end (0 on a
	// drained stream), the monitor passes injection spent stalled on a full
	// window, and how many times the monitor seeded an in-flight rumor again
	// because every node holding it had crashed.
	LostInjects     int64
	RumorsInjected  int64
	RumorsConverged int64
	RumorsExpired   int64
	RumorsActive    int
	InjectionStalls int64
	RumorsReseeded  int64
}

// Converged is the one definition of "all informed": every live node is
// informed, and somebody is alive to be — an emptied population has not
// converged, whichever engine emptied it.
func Converged(live, informed int) bool { return live > 0 && informed == live }

// UninformedSurvivors returns the number of live nodes that did not learn the
// rumor (the paper's o(F) fault-tolerance measure).
func (r Result) UninformedSurvivors() int { return r.Live - r.Informed }

// MinLiveFraction returns the smallest final live-informed fraction across
// all rumors (1 for a rumor-free result).
func (r Result) MinLiveFraction() float64 {
	minFrac := 1.0
	for _, ro := range r.Rumors {
		minFrac = min(minFrac, ro.LiveFraction)
	}
	return minFrac
}

// String renders a compact one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s n=%d rounds=%d msgs/node=%.2f bits=%d maxΔ=%d informed=%d/%d",
		r.Algorithm, r.N, r.Rounds, r.MessagesPerNode, r.Bits, r.MaxCommsPerRound, r.Informed, r.Live)
}

// Recorder captures per-phase deltas of the network metrics.
type Recorder struct {
	net    *phonecall.Network
	phases []Phase

	lastRound    int
	lastMessages int64
	lastBits     int64
}

// NewRecorder returns a Recorder positioned at the network's current metrics.
func NewRecorder(net *phonecall.Network) *Recorder {
	r := &Recorder{net: net}
	m := net.Metrics()
	r.lastRound = m.Rounds
	r.lastMessages = m.TotalMessages()
	r.lastBits = m.Bits
	return r
}

// Mark closes the current phase under the given name.
func (r *Recorder) Mark(name string) {
	m := r.net.Metrics()
	r.phases = append(r.phases, Phase{
		Name:     name,
		Rounds:   m.Rounds - r.lastRound,
		Messages: m.TotalMessages() - r.lastMessages,
		Bits:     m.Bits - r.lastBits,
	})
	r.lastRound = m.Rounds
	r.lastMessages = m.TotalMessages()
	r.lastBits = m.Bits
}

// Phases returns the recorded phases.
func (r *Recorder) Phases() []Phase { return append([]Phase(nil), r.phases...) }

// Summarize assembles a Result from the network's metrics and the outcome
// counters supplied by the algorithm driver.
func Summarize(algorithm string, net *phonecall.Network, informed int, phases []Phase) Result {
	m := net.Metrics()
	return Result{
		Algorithm:        algorithm,
		N:                net.N(),
		Seed:             net.Seed(),
		Rounds:           m.Rounds,
		CompletionRound:  m.Rounds,
		Messages:         m.Messages,
		ControlMessages:  m.ControlMessages,
		Bits:             m.Bits,
		MessagesPerNode:  float64(m.TotalMessages()) / float64(net.N()),
		MaxCommsPerRound: m.MaxCommsPerRound,
		Live:             net.LiveCount(),
		Informed:         informed,
		AllInformed:      Converged(net.LiveCount(), informed),
		Phases:           phases,
	}
}
