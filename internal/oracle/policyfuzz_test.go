package oracle

// FuzzPolicyVsOracle: the differential lock on the policy selection contract.
// The engine under test runs with a compiled policy.Selector installed on its
// network; the reference oracle resolves random targets through
// policy.ReferenceSelect — a naive reimplementation sharing no compiled state
// or scoring code. Any divergence in a single peer choice cascades into a
// report or inbox mismatch and fails the target.
//
//	go test ./internal/oracle -run=NONE -fuzz=FuzzPolicyVsOracle -fuzztime=30s

import (
	"testing"

	"repro/internal/policy"
)

// decodePolicyWorld derives a bounded (topology, policy, partitioned) triple
// from fuzz integers. Every decoded combination is valid for any n >= 2: zone
// counts are clamped to n, weights to a small range, thresholds to values the
// generated tables can both pass and fail.
func decodePolicyWorld(n int, zonesRaw, genRaw, modeRaw, rulesRaw uint8, weightsRaw uint32) (*policy.Table, *policy.Policy, bool) {
	k := 1 + int(zonesRaw)%6
	if k > n {
		k = n
	}
	var table *policy.Table
	var err error
	if genRaw%2 == 0 {
		table, err = policy.ZoneTable(n, k)
	} else {
		table, err = policy.WanLanTable(n, k)
	}
	if err != nil {
		panic(err) // k is clamped to [1,n]; the generators accept that range
	}
	partitioned := rulesRaw&0x20 != 0
	if rulesRaw&0x40 != 0 {
		return table, nil, partitioned // topology without a policy
	}
	pol := &policy.Policy{
		Weights: policy.Weights{
			SameZone:   float64(weightsRaw&0xff) / 8,
			Latency:    float64((weightsRaw>>8)&0xff) / 8,
			Capacity:   float64((weightsRaw>>16)&0xff) / 8,
			Reputation: float64((weightsRaw>>24)&0xff) / 8,
		},
	}
	if modeRaw%2 == 1 {
		pol.Mode = policy.ModePermissive
	}
	if rulesRaw&0x01 != 0 {
		pol.Rules.SameZoneOnly = true
	}
	if rulesRaw&0x02 != 0 {
		pol.Rules.MaxLatencyDistance = 40 // splits the wanlan latency ladder
	}
	if rulesRaw&0x04 != 0 {
		pol.Rules.MinReputation = 150
	}
	if rulesRaw&0x08 != 0 {
		pol.Rules.MinCapacity = 100 // excludes wanlan's capacity-64 zones
	}
	if rulesRaw&0x10 != 0 {
		pol.Rules.DenyZones = []int{k - 1}
	}
	return table, pol, partitioned
}

// FuzzPolicyVsOracle fuzzes topologies (generator, zone count), policies
// (mode, rules, weights), the static partition flag, worker counts and loss
// through Compare, with the engine additionally running under inbox poisoning
// and the invariant Checker (which replays random targets through the
// installed selector).
func FuzzPolicyVsOracle(f *testing.F) {
	f.Add(uint16(60), uint64(1), uint64(2), uint8(6), uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), uint32(0x10203040), uint8(0))
	f.Add(uint16(300), uint64(3), uint64(4), uint8(8), uint8(4), uint8(2), uint8(1), uint8(1), uint8(0x01), uint32(0), uint8(10))
	f.Add(uint16(150), uint64(5), uint64(6), uint8(5), uint8(1), uint8(4), uint8(0), uint8(0), uint8(0x0e), uint32(0xffffffff), uint8(0))
	f.Add(uint16(80), uint64(7), uint64(8), uint8(4), uint8(8), uint8(1), uint8(1), uint8(1), uint8(0x30), uint32(0x00ff0000), uint8(50))
	f.Add(uint16(500), uint64(9), uint64(10), uint8(10), uint8(3), uint8(5), uint8(0), uint8(0), uint8(0x40), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, n uint16, netSeed, protoSeed uint64,
		rounds, workers, zonesRaw, genRaw, modeRaw, rulesRaw uint8, weightsRaw uint32, lossPct uint8) {
		sc := Script{
			N:         2 + int(n)%2999,
			Rounds:    1 + int(rounds)%10,
			NetSeed:   netSeed,
			Workers:   1 + int(workers)%8,
			ProtoSeed: protoSeed,
			LossRate:  float64(lossPct%101) / 100,
			LossSeed:  netSeed ^ 0x10c0,
		}
		net, orc, err := NewPair(sc, true)
		if err != nil {
			t.Fatal(err)
		}
		table, pol, part := decodePolicyWorld(sc.N, zonesRaw, genRaw, modeRaw, rulesRaw, weightsRaw)
		sel, err := policy.Install(net, table, pol)
		if err != nil {
			t.Fatal(err)
		}
		sel.SetPartitioned(part)
		orc.SetSelectPeer(func(round, i int) (int, bool) {
			return policy.ReferenceSelect(table, pol, part, sc.NetSeed, round, i)
		})
		checker := NewChecker()
		net.Observe(checker)
		if err := Compare(net, orc, sc); err != nil {
			t.Fatal(err)
		}
		if err := checker.Err(); err != nil {
			t.Fatalf("invariant violation: %v", err)
		}
	})
}
