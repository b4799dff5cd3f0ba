package oracle

// Native fuzz targets for the differential harness. Both run in normal
// `go test` mode over the checked-in seed corpus (testdata/fuzz/...), and CI
// additionally runs each with -fuzz for a short budget so fresh inputs keep
// probing the engine after every change.
//
//	go test ./internal/oracle -run=NONE -fuzz=FuzzEngineVsOracle -fuzztime=30s
//	go test ./internal/oracle -run=NONE -fuzz=FuzzScenarioVsOracle -fuzztime=30s
//	go test ./internal/oracle -run=NONE -fuzz=FuzzAdversaryVsOracle -fuzztime=30s

import (
	"testing"

	"repro/internal/failure"
	"repro/internal/phonecall"
	"repro/internal/scenario"
)

// FuzzEngineVsOracle fuzzes network size, seeds, round budget, worker count,
// loss rate, the churn script, whether the script's exchanges without
// content stay exchanges (calls) or become pulls, and the dense call mix
// through Compare, with the engine running under inbox poisoning and the
// invariant Checker. Any divergence between the sharded engine and the naive
// reference — one message, one bit, one Δ — fails the target.
func FuzzEngineVsOracle(f *testing.F) {
	f.Add(uint16(40), uint64(1), uint64(2), uint64(3), uint8(8), uint8(1), uint8(0), false, false)
	f.Add(uint16(300), uint64(4), uint64(5), uint64(6), uint8(10), uint8(3), uint8(30), false, false)
	f.Add(uint16(4500), uint64(7), uint64(8), uint64(9), uint8(4), uint8(8), uint8(5), false, false)
	f.Add(uint16(2), uint64(10), uint64(11), uint64(12), uint8(6), uint8(2), uint8(95), false, false)
	f.Add(uint16(1000), uint64(13), uint64(14), uint64(15), uint8(12), uint8(4), uint8(50), false, false)
	f.Fuzz(func(t *testing.T, n uint16, netSeed, protoSeed, churnSeed uint64, rounds, workers, lossPct uint8, calls, dense bool) {
		sc := Script{
			N:         2 + int(n)%5999,
			Rounds:    1 + int(rounds)%12,
			NetSeed:   netSeed,
			Workers:   1 + int(workers)%8,
			ProtoSeed: protoSeed,
			LossRate:  float64(lossPct%101) / 100,
			LossSeed:  netSeed ^ 0x10c0,
			Churn:     true,
			ChurnSeed: churnSeed,
			Dense:     dense,
			// The corpus keeps the bit's old name: a "calls" input kept its
			// exchanges without content.
			EmptyExchanges: calls,
		}
		runDiffScript(t, sc)
	})
}

// decodeEvents turns fuzz bytes into a bounded scenario timeline: five bytes
// per event select the kind, round and parameters. Node selections reuse the
// oblivious Section 8 adversary so they stay valid for any n.
func decodeEvents(raw []byte, n, rounds int) []scenario.Event {
	events := []scenario.Event{
		// Every scenario must inject at least one rumor to be valid.
		scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
	}
	for off := 0; off+5 <= len(raw) && len(events) < 13; off += 5 {
		b := raw[off : off+5]
		at := 1 + int(b[1])%rounds
		pick := uint64(b[3])<<8 | uint64(b[4])
		switch b[0] % 5 {
		case 0:
			events = append(events, scenario.InjectRumor{
				At: at, Node: int(pick) % n, Rumor: phonecall.RumorID(b[2] % 8),
			})
		case 1:
			count := 1 + int(b[2])%(n/2+1)
			events = append(events, scenario.CrashAt{
				At: at, Nodes: failure.Random{Count: count, Seed: pick}.Select(n),
			})
		case 2:
			count := 1 + int(b[2])%(n/2+1)
			events = append(events, scenario.JoinAt{
				At: at, Nodes: failure.Random{Count: count, Seed: pick}.Select(n),
			})
		case 3:
			events = append(events, scenario.Loss{
				At: at, Rate: float64(b[2]%101) / 100, Seed: pick,
			})
		case 4:
			events = append(events, scenario.Loss{At: at})
		}
	}
	return events
}

// decodeAdversaryEvents is decodeEvents with the Byzantine library in the
// mix: six bytes per event select inject/crash/join/loss or one of the four
// corrupt kinds, so adversaries combine freely with churn and loss.
func decodeAdversaryEvents(raw []byte, n, rounds int) []scenario.Event {
	events := []scenario.Event{
		scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
	}
	for off := 0; off+6 <= len(raw) && len(events) < 13; off += 6 {
		b := raw[off : off+6]
		at := 1 + int(b[1])%rounds
		pick := uint64(b[3])<<8 | uint64(b[4])
		count := 1 + int(b[2])%(n/4+1)
		nodes := failure.Random{Count: count, Seed: pick}.Select(n)
		corrupt := func(spec scenario.AdversarySpec) scenario.Event {
			return scenario.CorruptAt{At: at, Nodes: nodes, Adversary: spec}
		}
		switch b[0] % 8 {
		case 0:
			events = append(events, scenario.InjectRumor{
				At: at, Node: int(pick) % n, Rumor: phonecall.RumorID(b[2] % 8),
			})
		case 1:
			events = append(events, scenario.CrashAt{At: at, Nodes: nodes})
		case 2:
			events = append(events, scenario.JoinAt{At: at, Nodes: nodes})
		case 3:
			events = append(events, scenario.Loss{
				At: at, Rate: float64(b[5]%101) / 100, Seed: pick,
			})
		case 4:
			events = append(events, corrupt(scenario.AdversarySpec{Kind: scenario.AdvLiar, Seed: pick}))
		case 5:
			events = append(events, corrupt(scenario.AdversarySpec{
				Kind: scenario.AdvSpammer, Rate: float64(b[5]%101) / 100, Seed: pick,
			}))
		case 6:
			victims := failure.Random{Count: 1 + int(b[5])%3, Seed: pick ^ 0xec1}.Select(n)
			events = append(events, corrupt(scenario.AdversarySpec{Kind: scenario.AdvEclipse, Victims: victims}))
		case 7:
			events = append(events, corrupt(scenario.AdversarySpec{Kind: scenario.AdvStale}))
		}
	}
	return events
}

// FuzzAdversaryVsOracle fuzzes adversarial scripts — Byzantine behaviors
// scheduled, targeted and combined with churn and loss — through the
// scenario differential AND the invariant Checker riding the driver's
// observer seam. It locks three properties at once: the engine's behavior
// wrap matches the reference's, the model invariants hold under every
// adversary, and the honest-node invariants are skipped exactly for the
// corrupted nodes (a violation for an honest node fails the target).
func FuzzAdversaryVsOracle(f *testing.F) {
	f.Add(uint16(100), uint64(1), uint8(1), uint8(2), uint8(12), []byte{4, 2, 10, 0, 9, 0})
	f.Add(uint16(300), uint64(2), uint8(3), uint8(2), uint8(16), []byte{5, 3, 20, 0, 7, 50})
	f.Add(uint16(200), uint64(3), uint8(2), uint8(0), uint8(10), []byte{6, 1, 5, 0, 3, 2})
	f.Add(uint16(150), uint64(4), uint8(4), uint8(1), uint8(14), []byte{7, 9, 8, 0, 4, 0})
	f.Add(uint16(400), uint64(5), uint8(2), uint8(2), uint8(20),
		[]byte{4, 2, 10, 0, 9, 0, 1, 5, 8, 0, 3, 0, 3, 4, 10, 0, 6, 30})
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, workers, algoRaw, rounds uint8, raw []byte) {
		size := 2 + int(n)%4999
		budget := 1 + int(rounds)%40
		sc := scenario.Scenario{
			Name:      "adversary-fuzz",
			N:         size,
			Rounds:    budget,
			Algorithm: scenario.Algorithms()[int(algoRaw)%3],
			Events:    decodeAdversaryEvents(raw, size, budget),
		}
		if err := sc.Validate(); err != nil {
			t.Skip(err)
		}
		checker := NewDeferredChecker()
		cfg := scenario.Config{Seed: seed, Workers: 1 + int(workers)%8, Observer: checker}
		if err := ScenarioDiff(sc, cfg); err != nil {
			t.Fatal(err)
		}
		if err := checker.Err(); err != nil {
			t.Fatalf("invariant violation: %v", err)
		}
	})
}

// FuzzScenarioVsOracle fuzzes whole dynamic-network scenarios — protocol,
// timeline, worker count — through scenario.Run and the oracle-side
// reference run, requiring identical Results down to every phase report and
// rumor outcome.
func FuzzScenarioVsOracle(f *testing.F) {
	f.Add(uint16(100), uint64(1), uint8(1), uint8(0), uint8(10), []byte{})
	f.Add(uint16(300), uint64(2), uint8(3), uint8(1), uint8(20), []byte{1, 4, 50, 0, 9, 3, 2, 10, 0, 5})
	f.Add(uint16(4500), uint64(3), uint8(8), uint8(2), uint8(8), []byte{0, 3, 2, 0, 77, 1, 5, 120, 1, 1})
	f.Add(uint16(50), uint64(4), uint8(2), uint8(0), uint8(30), []byte{2, 8, 10, 0, 3, 4, 12, 0, 0, 0, 0, 2, 40, 1, 2})
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, workers, algoRaw, rounds uint8, raw []byte) {
		size := 2 + int(n)%4999
		budget := 1 + int(rounds)%40
		sc := scenario.Scenario{
			Name:      "fuzz",
			N:         size,
			Rounds:    budget,
			Algorithm: scenario.Algorithms()[int(algoRaw)%3],
			Events:    decodeEvents(raw, size, budget),
		}
		if err := sc.Validate(); err != nil {
			t.Skip(err)
		}
		cfg := scenario.Config{Seed: seed, Workers: 1 + int(workers)%8}
		if err := ScenarioDiff(sc, cfg); err != nil {
			t.Fatal(err)
		}
	})
}
