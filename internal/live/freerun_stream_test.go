package live

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
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
// drain completely, every rumor converged. Stream rumor k is seeded at the
// first live node from k mod N, so a late monitor tick can seed rumors 1–3 at
// the victims right before they crash; the monitor must then seed them again
// at a live node, or their slots wedge the window and the stream never
// drains. A failure names the assertion and writes the run's trace — one JSON
// record per frontier advance, then the result — to a file whose path it
// logs.
func TestStreamChurn(t *testing.T) {
	var mu sync.Mutex
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	record := func(typ string, v any) {
		mu.Lock()
		defer mu.Unlock()
		if err := enc.Encode(map[string]any{"type": typ, typ: v}); err != nil {
			t.Error(err)
		}
	}
	fr, err := NewFreeRun(FreeRunConfig{
		N:      24,
		Seed:   17,
		Rounds: 600,
		Events: []scenario.Event{
			scenario.CrashAt{At: 5, Nodes: []int{1, 2, 3}},
			scenario.JoinAt{At: 20, Nodes: []int{1, 2, 3}},
		},
		Stream:     &StreamConfig{Total: 48, Rate: 2, MaxInFlight: 16},
		OnFrontier: func(fi FrontierInfo) { record("frontier", fi) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fr.Run(context.Background())
	record("result", rep)
	defer func() {
		if !t.Failed() {
			return
		}
		f, err := os.CreateTemp("", "TestStreamChurn-*.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		mu.Lock()
		defer mu.Unlock()
		if _, err := f.Write(jsonl.Bytes()); err != nil {
			t.Fatal(err)
		}
		t.Logf("run trace: %s", f.Name())
	}()
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.Live != 24 {
		t.Errorf("rejoin did not restore the population: %d live, want 24", rep.Live)
	}
	if !rep.AllInformed {
		t.Errorf("churned stream did not drain: %d/%d live nodes informed, %d rumors injected, %d converged, %d active after %d rounds",
			rep.Informed, rep.Live, rep.RumorsInjected, rep.RumorsConverged, rep.RumorsActive, rep.Rounds)
	}
	if rep.RumorsInjected != 48 || rep.RumorsConverged != 48 {
		t.Errorf("%d rumors injected, %d converged (%d seeded again): want all 48 converged",
			rep.RumorsInjected, rep.RumorsConverged, rep.RumorsReseeded)
	}
	if rep.UnfiredEvents != 0 {
		t.Errorf("%d timeline events never fired", rep.UnfiredEvents)
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

// TestFreeRunRejectsZonesOutsideTopology: zone events are checked against
// the peer selector's topology at construction, so an outage of a zone the
// topology lacks is an ErrSpec-typed error, not an event the run silently
// ignores.
func TestFreeRunRejectsZonesOutsideTopology(t *testing.T) {
	const n = 30
	topo, err := policy.ZoneTable(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := policy.Compile(n, 1, topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]FreeRunConfig{
		"zone past the topology":     {PeerSelector: sel, Events: []scenario.Event{scenario.ZoneOutage{At: 3, Zone: 3}}},
		"partition without topology": {Events: []scenario.Event{scenario.Partition{At: 3}}},
	} {
		cfg.N, cfg.Rounds = n, 10
		if _, err := NewFreeRun(cfg); !errors.Is(err, scenario.ErrSpec) {
			t.Errorf("%s: got %v, want an ErrSpec-typed error", name, err)
		}
	}
}

// TestSummaryFrameRoundTrip pins the summary block in both forms: call and
// response frames decode to the same IDs, the flags byte says which form the
// block is in, and a frame whose summary block is truncated or
// trailing-padded is rejected.
func TestSummaryFrameRoundTrip(t *testing.T) {
	sparse := []rumorset.ID{3, 70, 71, 4096, 1 << 20, 1<<32 - 1}
	dense := []rumorset.ID{1 << 31}
	for k := rumorset.ID(1); k < 40; k++ {
		dense = append(dense, 1<<31+3*k)
	}
	for _, ids := range [][]rumorset.ID{sparse, dense} {
		var sum rumorset.Summary
		sum.SetIDs(ids)
		if sum.Bitmap != (len(ids) == len(dense)) {
			t.Fatalf("%d ids sent in the bitmap form: %v", len(ids), sum.Bitmap)
		}
		raw := appendSummaryCallFrame(nil, 9, 4, true, &sum)
		if bitmap := raw[1]&flagBitmap != 0; bitmap != sum.Bitmap {
			t.Fatalf("flags say bitmap=%v for a %s summary", bitmap, map[bool]string{true: "bitmap", false: "varint"}[sum.Bitmap])
		}
		f, err := parseFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if f.typ != frameCall || f.round != 9 || f.src != 4 || !f.wantsPull || !f.hasSummary {
			t.Fatalf("call frame header mangled: %+v", f)
		}
		if got := f.sum.AppendIDs(nil); !slices.Equal(got, ids) {
			t.Fatalf("summary round-trip changed IDs: %v vs %v", got, ids)
		}

		raw = appendSummaryRespFrame(nil, 12, 7, &sum)
		f, err = parseFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if f.typ != frameResp || f.src != 7 || !f.hasSummary || !slices.Equal(f.sum.AppendIDs(nil), ids) {
			t.Fatalf("resp frame mangled: %+v", f)
		}
		// A reused scratch summary decodes without allocating fresh slices.
		scratch := rumorset.Summary{IDs: make([]rumorset.ID, 0, 64), Words: make([]uint64, 0, 64)}
		if a := testing.AllocsPerRun(10, func() { f, err = parseFrameBuf(raw, scratch) }); err != nil || a != 0 {
			t.Errorf("parseFrameBuf into a reused scratch: %v allocations, err %v", a, err)
		}

		if _, err := parseFrame(raw[:len(raw)-1]); err == nil {
			t.Error("truncated summary accepted")
		}
		if _, err := parseFrame(append(raw, 0)); err == nil {
			t.Error("trailing bytes after summary accepted")
		}
		raw[1] ^= flagBitmap // the right bytes read in the other form
		if f, err := parseFrame(raw); err == nil && slices.Equal(f.sum.AppendIDs(nil), ids) {
			t.Error("a summary decoded to its IDs in the other form")
		}
	}
}
