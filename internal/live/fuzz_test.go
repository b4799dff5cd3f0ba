package live

// Native fuzz targets. FuzzLockStepVsOracle extends the PR 3 differential
// harness to the live runtime: the lock-step executor must stay bit-identical
// to the reference oracle for fuzzer-chosen sizes, seeds, loss rates and
// churn scripts. FuzzGossipFrame feeds hostile bytes to the gossip codec, the
// one parser a real socket reaches (cmd/gossipnode).
//
//	go test ./internal/live -run=NONE -fuzz=FuzzLockStepVsOracle -fuzztime=30s
//	go test ./internal/live -run=NONE -fuzz=FuzzGossipFrame -fuzztime=30s

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/oracle"
	"repro/internal/phonecall"
	"repro/internal/rumorset"
)

// FuzzGossipFrame: parseFrame never panics, and whatever it accepts
// re-encodes through the frame's own encoder to bytes that parse to the same
// fields (the bytes themselves may differ: padded varints and meaningless
// flag bits are not canonical). Encoding into a dirty recycled buffer, of
// any capacity, gives exactly the bytes encoding into nil does: nodes encode
// their sends into frames they drained.
func FuzzGossipFrame(f *testing.F) {
	m := phonecall.Message{Value: 0b1011, Bits: 300, Tag: phonecall.TagHoldings, Rumor: true, IDs: []phonecall.NodeID{7, 1 << 40}}
	f.Add(appendCallFrame(nil, 3, 5, true, true, &m))
	f.Add(appendCallFrame(nil, 3, 5, false, true, nil))
	f.Add(appendRespFrame(nil, 4, 6, &m))
	for _, ids := range [][]rumorset.ID{{1, 5, 1 << 31}, {0, 4}, {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 75}} {
		var sum rumorset.Summary
		sum.SetIDs(ids)
		f.Add(appendSummaryCallFrame(nil, 9, 2, true, &sum))
		f.Add(appendSummaryRespFrame(nil, 9, 2, &sum))
		sum.Bitmap = true // the bitmap form of each set, shorter or not
		f.Add(appendSummaryCallFrame(nil, 9, 2, false, &sum))
		f.Add(appendSummaryRespFrame(nil, 9, 2, &sum))
	}
	f.Add(overflowFrame())
	// Frames whose round, src, bits or ID count sits just past a varint byte
	// boundary, where a miscounted frame length would first show.
	f.Add(appendCallFrame(nil, 128, 127, true, false, &m))
	f.Add(appendRespFrame(nil, 1<<14, 1<<7, &phonecall.Message{Bits: -65, IDs: make([]phonecall.NodeID, 127)}))
	f.Add(appendCallFrame(nil, 1, 1<<21, false, false, nil))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := parseFrame(raw)
		if err != nil {
			return
		}
		encode := func(dst []byte) []byte {
			switch {
			case fr.hasSummary && fr.typ == frameCall:
				return appendSummaryCallFrame(dst, fr.round, fr.src, fr.wantsPull, &fr.sum)
			case fr.hasSummary:
				return appendSummaryRespFrame(dst, fr.round, fr.src, &fr.sum)
			case fr.typ == frameCall:
				return appendCallFrame(dst, fr.round, fr.src, fr.hasPayload, fr.wantsPull, &fr.msg)
			default:
				return appendRespFrame(dst, fr.round, fr.src, &fr.msg)
			}
		}
		again := encode(nil)
		if !fr.hasSummary {
			// The length a node sizes its spare by is the length encoded.
			size := headerLen(fr.round, fr.src)
			if fr.hasPayload || fr.typ == frameResp {
				size += messageLen(&fr.msg)
			}
			if size != len(again) {
				t.Fatalf("frame sized %d bytes, encoded %d: %+v", size, len(again), fr)
			}
		}
		// A recycled frame is dirty and of any size: encoding into it, with
		// room or without, gives the bytes encoding afresh does.
		for _, c := range []int{0, len(again) / 2, len(again) - 1, len(again), len(again) + 9, 2 * len(raw)} {
			dirty := make([]byte, c)
			for k := range dirty {
				dirty[k] = raw[k%len(raw)]
			}
			if got := encode(dirty[:0]); !bytes.Equal(got, again) {
				t.Fatalf("encoding into a dirty %d-byte buffer gave %x, afresh %x", c, got, again)
			}
		}
		back, err := parseFrame(again)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v\n parsed %+v\n bytes  %x", err, fr, again)
		}
		if fr.typ == frameResp {
			fr.wantsPull = false // a response has no pull half; its encoder drops the bit
		}
		for _, f := range []*frame{&fr, &back} { // nil and empty slices are one summary
			if len(f.sum.IDs) == 0 {
				f.sum.IDs = nil
			}
			if len(f.sum.Words) == 0 {
				f.sum.Words = nil
			}
		}
		if !reflect.DeepEqual(fr, back) {
			t.Fatalf("round trip changed the frame:\n first  %+v\n second %+v", fr, back)
		}
	})
}

func FuzzLockStepVsOracle(f *testing.F) {
	f.Add(uint16(24), uint64(1), uint64(2), uint64(3), uint8(6), uint8(0))
	f.Add(uint16(200), uint64(4), uint64(5), uint64(6), uint8(8), uint8(30))
	f.Add(uint16(2), uint64(7), uint64(8), uint64(9), uint8(4), uint8(95))
	f.Add(uint16(333), uint64(10), uint64(11), uint64(12), uint8(10), uint8(50))
	f.Fuzz(func(t *testing.T, n uint16, netSeed, protoSeed, churnSeed uint64, rounds, lossPct uint8) {
		sc := oracle.Script{
			// Bounded sizes: every execution spins up a goroutine per node.
			N:         2 + int(n)%499,
			Rounds:    1 + int(rounds)%10,
			NetSeed:   netSeed,
			ProtoSeed: protoSeed,
			LossRate:  float64(lossPct%101) / 100,
			LossSeed:  netSeed ^ 0x10c0,
			Churn:     true,
			ChurnSeed: churnSeed,
		}
		liveNet, err := phonecall.New(phonecall.Config{N: sc.N, Seed: sc.NetSeed, PoisonInbox: true})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := NewLockStep(liveNet, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer ls.Close()
		orc, err := oracle.New(phonecall.Config{N: sc.N, Seed: sc.NetSeed})
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Compare(liveNet, orc, sc); err != nil {
			t.Fatal(err)
		}
		if err := ls.Err(); err != nil {
			t.Fatalf("runtime: %v", err)
		}
	})
}
