package live

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rumorset"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestStreamConverges is the rumor-stream smoke test: a modest stream on the
// channel mesh must inject everything, converge everything, GC everything,
// and report a completion frontier.
func TestStreamConverges(t *testing.T) {
	fr, err := NewFreeRun(FreeRunConfig{
		N:      32,
		Seed:   7,
		Rounds: 400,
		Stream: &StreamConfig{Total: 64, Rate: 4, MaxInFlight: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RumorsInjected != 64 {
		t.Fatalf("injected %d rumors, want 64: %+v", rep.RumorsInjected, rep)
	}
	if rep.RumorsConverged != 64 || rep.RumorsExpired != 64 {
		t.Fatalf("converged/expired %d/%d, want 64/64: %+v", rep.RumorsConverged, rep.RumorsExpired, rep)
	}
	if rep.RumorsActive != 0 {
		t.Fatalf("%d rumors still active at the end: %+v", rep.RumorsActive, rep)
	}
	if !rep.AllInformed || rep.CompletionRound == 0 {
		t.Fatalf("stream did not complete: %+v", rep)
	}
	if rep.Messages == 0 || rep.Bits == 0 {
		t.Fatalf("no traffic accounted: %+v", rep)
	}
}

// TestStreamAlgorithms runs a small stream through each protocol variant —
// push relies on summary calls alone, pull on the request/response path.
func TestStreamAlgorithms(t *testing.T) {
	for _, algo := range scenario.Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			fr, err := NewFreeRun(FreeRunConfig{
				N:         24,
				Seed:      11,
				Rounds:    500,
				Algorithm: algo,
				Stream:    &StreamConfig{Total: 20, Rate: 2, MaxInFlight: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fr.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.AllInformed {
				t.Fatalf("%s stream did not complete: %+v", algo, rep)
			}
		})
	}
}

// TestStreamSoak is the scalability gate (S4): a free-running stream under 2%
// frame loss whose injection rate outpaces convergence, so the in-flight
// window fills (proving >= MaxInFlight concurrent rumors were sustained —
// that is what InjectionStalls > 0 certifies), GC recycles slots, injection
// backs off instead of deadlocking, and every rumor still converges. The full
// profile drives 1024 concurrent rumors; -short runs the reduced CI profile
// (256 concurrent) under -race.
func TestStreamSoak(t *testing.T) {
	total, window := 2048, 1024
	if testing.Short() {
		total, window = 512, 256
	}
	// Injection wants 2x the window per frontier round, so the window is
	// pinned full (>= `window` concurrent rumors) until GC drains the tail.
	rate := float64(2 * window)
	tr, err := NewChannelTransport(16, ChannelConfig{Drop: 0.02, DropSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := telemetry.NewRegistry()
	fr, err := NewFreeRun(FreeRunConfig{
		N:         16,
		Seed:      3,
		Rounds:    4000,
		Transport: tr,
		Telemetry: reg,
		Stream:    &StreamConfig{Total: total, Rate: rate, MaxInFlight: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		rep trace.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := fr.Run(context.Background())
		done <- outcome{rep, err}
	}()
	var rep trace.Result
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		rep = o.rep
	case <-time.After(120 * time.Second):
		t.Fatal("stream soak deadlocked")
	}
	if rep.RumorsInjected != int64(total) {
		t.Fatalf("injected %d/%d rumors (injection wedged?): %+v", rep.RumorsInjected, total, rep)
	}
	if rep.RumorsConverged != int64(total) || rep.RumorsActive != 0 {
		t.Fatalf("converged %d/%d with %d still active: %+v", rep.RumorsConverged, total, rep.RumorsActive, rep)
	}
	if rep.InjectionStalls == 0 {
		t.Fatalf("window never filled — the soak did not sustain %d concurrent rumors: %+v", window, rep)
	}
	if !rep.AllInformed || rep.CompletionRound == 0 {
		t.Fatalf("soak did not complete: %+v", rep)
	}
	if rep.Drops == 0 {
		t.Fatalf("2%% loss dropped nothing: %+v", rep)
	}
	samples := map[string]float64{}
	for _, s := range reg.Snapshot() {
		samples[s.ID()] = s.Value
	}
	if got := samples[`repro_rumors_converged_total{algo="push-pull",engine="free-running"}`]; got != float64(total) {
		t.Errorf("repro_rumors_converged_total = %v, want %d", got, total)
	}
	if got := samples[`repro_rumors_active{algo="push-pull",engine="free-running"}`]; got != 0 {
		t.Errorf("repro_rumors_active = %v at the end, want 0", got)
	}
	if got := samples[`repro_rumors_injected_total{algo="push-pull",engine="free-running"}`]; got != float64(total) {
		t.Errorf("repro_rumors_injected_total = %v, want %d", got, total)
	}
}

// TestStreamChurn drives crashes and uninformed rejoins through a stream:
// the revived nodes must re-learn the active window and the stream must still
// drain completely.
func TestStreamChurn(t *testing.T) {
	fr, err := NewFreeRun(FreeRunConfig{
		N:      24,
		Seed:   17,
		Rounds: 600,
		Events: []scenario.Event{
			scenario.CrashAt{At: 5, Nodes: []int{1, 2, 3}},
			scenario.JoinAt{At: 20, Nodes: []int{1, 2, 3}},
		},
		Stream: &StreamConfig{Total: 48, Rate: 2, MaxInFlight: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live != 24 {
		t.Fatalf("rejoin did not restore the population: %+v", rep)
	}
	if !rep.AllInformed {
		t.Fatalf("churned stream did not drain: %+v", rep)
	}
	if rep.UnfiredEvents != 0 {
		t.Fatalf("%d timeline events never fired: %+v", rep.UnfiredEvents, rep)
	}
}

// TestStreamValidation pins the stream constructor contract: typed ErrSpec
// errors for a bad stream shape, inject events alongside a stream, and
// byzantine events on the wide path.
func TestStreamValidation(t *testing.T) {
	if _, err := NewFreeRun(FreeRunConfig{N: 8, Rounds: 10, Stream: &StreamConfig{Total: 0}}); !errors.Is(err, scenario.ErrSpec) {
		t.Errorf("Total=0 not rejected with ErrSpec: %v", err)
	}
	_, err := NewFreeRun(FreeRunConfig{
		N: 8, Rounds: 10,
		Stream: &StreamConfig{Total: 4},
		Events: []scenario.Event{scenario.InjectRumor{At: 1, Node: 0, Rumor: 0}},
	})
	if !errors.Is(err, scenario.ErrSpec) {
		t.Errorf("inject event alongside a stream not rejected with ErrSpec: %v", err)
	}
	_, err = NewFreeRun(FreeRunConfig{
		N: 8, Rounds: 10,
		Stream: &StreamConfig{Total: 4},
		Events: []scenario.Event{scenario.CorruptAt{At: 1, Nodes: []int{1}, Adversary: scenario.AdversarySpec{Kind: scenario.AdvLiar}}},
	})
	if !errors.Is(err, scenario.ErrSpec) {
		t.Errorf("corrupt event on the wide path not rejected with ErrSpec: %v", err)
	}
	// Defaults: rate and window fill in, the caller's struct is untouched.
	cfg := StreamConfig{Total: 4}
	fr, err := NewFreeRun(FreeRunConfig{N: 8, Rounds: 10, Stream: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if fr.stream.Rate != 1 || fr.stream.MaxInFlight != 4 {
		t.Errorf("defaults not applied: %+v", fr.stream)
	}
	if cfg.Rate != 0 || cfg.MaxInFlight != 0 {
		t.Errorf("caller's StreamConfig mutated: %+v", cfg)
	}
}

// TestFreeRunRejectsInvalidEvents pins the S-layer bugfix on this engine: an
// out-of-range inject is a typed construction error, not a silent
// IgnoredEvents bump at fire time.
func TestFreeRunRejectsInvalidEvents(t *testing.T) {
	for name, events := range map[string][]scenario.Event{
		"inject node out of range":  {scenario.InjectRumor{At: 1, Node: 99, Rumor: 0}},
		"inject rumor past bitmask": {scenario.InjectRumor{At: 1, Node: 0, Rumor: 64}},
		"crash node out of range":   {scenario.CrashAt{At: 1, Nodes: []int{-2}}},
		"loss rate out of range":    {scenario.Loss{At: 1, Rate: 1.5}},
	} {
		_, err := NewFreeRun(FreeRunConfig{N: 8, Rounds: 10, Events: events})
		if !errors.Is(err, scenario.ErrSpec) {
			t.Errorf("%s: got %v, want an ErrSpec-typed error", name, err)
		}
	}
}

// TestSummaryFrameRoundTrip pins the new wire block: call and response frames
// carrying rumor-ID summaries decode to the same IDs, and a frame whose
// summary block is truncated or trailing-padded is rejected.
func TestSummaryFrameRoundTrip(t *testing.T) {
	ids := []rumorset.ID{3, 70, 71, 4096, 1 << 20, 1<<32 - 1}
	raw := appendSummaryCallFrame(nil, 9, 4, true, ids)
	f, err := parseFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != frameCall || f.round != 9 || f.src != 4 || !f.wantsPull || !f.hasSummary {
		t.Fatalf("call frame header mangled: %+v", f)
	}
	if len(f.sum) != len(ids) {
		t.Fatalf("summary round-trip lost IDs: %v vs %v", f.sum, ids)
	}
	for i := range ids {
		if f.sum[i] != ids[i] {
			t.Fatalf("summary round-trip changed IDs: %v vs %v", f.sum, ids)
		}
	}

	raw = appendSummaryRespFrame(nil, 12, 7, ids[:2])
	f, err = parseFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != frameResp || f.src != 7 || !f.hasSummary || len(f.sum) != 2 {
		t.Fatalf("resp frame mangled: %+v", f)
	}
	// A reused scratch buffer decodes without allocating a fresh slice.
	scratch := make([]rumorset.ID, 0, 8)
	f, err = parseFrameBuf(raw, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &f.sum[0] != &scratch[:1][0] {
		t.Error("parseFrameBuf did not reuse the caller's scratch")
	}

	full := appendSummaryCallFrame(nil, 1, 0, false, ids)
	if _, err := parseFrame(full[:len(full)-1]); err == nil {
		t.Error("truncated summary accepted")
	}
	if _, err := parseFrame(append(full, 0)); err == nil {
		t.Error("trailing bytes after summary accepted")
	}
}
