package scenario

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/policy"
)

var updateWideGolden = flag.Bool("update-wide-golden", false,
	"rewrite testdata/wide_golden_*.txt from the current wide simulator path")

// wideGoldenScenario is a scaled-down sim-scenario-many (bench/workloads.go):
// WAN/LAN topology, the same weighted policy, 2 % call loss, sparse rumor IDs
// streamed through a window smaller than their total so slots recycle, and a
// crash/join pair in the middle of the stream.
func wideGoldenScenario(t *testing.T, algo Algorithm) (Scenario, Config) {
	t.Helper()
	const n, zones, rumors, perRound = 384, 4, 160, 4
	topo, err := policy.WanLanTable(n, zones)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{Loss{At: 1, Rate: 0.02, Seed: 77}}
	for id := 0; id < rumors; id++ {
		events = append(events, InjectRumor{
			At:    1 + id/perRound,
			Node:  (id*7919 + 13) % n,
			Rumor: phonecall.RumorID(5 + 1009*id),
		})
	}
	events = append(events,
		CrashAt{At: 12, Nodes: []int{3, 50, 51, 200, 383}},
		JoinAt{At: 24, Nodes: []int{50, 200}},
	)
	sc := Scenario{
		Name: "wide golden", N: n, Rounds: 75, Algorithm: algo,
		Events: events, MaxInFlight: 96,
	}
	cfg := Config{
		Seed:     21,
		Topology: topo,
		Policy:   &policy.Policy{Weights: policy.Weights{SameZone: 2, Capacity: 1, Latency: 0.5}},
	}
	return sc, cfg
}

// renderWideGolden prints everything the golden pins: the traffic totals, the
// ledger counters and every rumor's fate.
func renderWideGolden(res Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "algorithm %s\nmessages %d\nbits %d\nrumors_expired %d\nlost_injects %d\n",
		res.Algorithm, res.Messages, res.Bits, res.RumorsExpired, res.LostInjects)
	for _, ro := range res.Rumors {
		fmt.Fprintf(&b, "rumor %d inject %d completion %d live_informed %d\n",
			ro.Rumor, ro.InjectRound, ro.CompletionRound, ro.LiveInformed)
	}
	return b.Bytes()
}

// TestWideGolden pins the wide simulator path byte for byte, for every
// steppable protocol and any shard count. The goldens were generated before
// the rumor set grew its ordered index and the protocol started reusing a
// node's intent digest for its response; pull is the case in which a reused
// digest would be stale (no intent digest is ever built), push-pull the one in
// which it is reused on every answered call.
func TestWideGolden(t *testing.T) {
	for _, algo := range Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			sc, cfg := wideGoldenScenario(t, algo)
			path := filepath.Join("testdata", "wide_golden_"+string(algo)+".txt")
			for _, workers := range []int{1, 2, 8} {
				cfg.Workers = workers
				res, err := Run(context.Background(), sc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := renderWideGolden(res)
				if *updateWideGolden && workers == 1 {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: wide path drifted from %s:\n%s", workers, path, firstDiff(got, want))
				}
				if res.RumorsExpired <= int64(sc.MaxInFlight) {
					t.Fatalf("only %d rumors expired through a %d-slot window: slots never recycled",
						res.RumorsExpired, sc.MaxInFlight)
				}
			}
		})
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "identical"
}
