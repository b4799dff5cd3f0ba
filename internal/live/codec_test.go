package live

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/phonecall"
)

// TestCodecRoundTrip pins the wire codec: every message shape a protocol can
// send must decode bit-identically (the lock-step conformance tests compare
// delivered inboxes against the engine with reflect.DeepEqual, so nil vs
// empty ID slices and negative Bits overrides all matter).
func TestCodecRoundTrip(t *testing.T) {
	msgs := []phonecall.Message{
		{},
		{Value: 0xdeadbeefcafef00d, Tag: 42, Rumor: true},
		{IDs: []phonecall.NodeID{}},
		{IDs: []phonecall.NodeID{1, 1 << 62, 0xffffffffffffffff}},
		{Bits: -1, Tag: 0xEF, Value: 7},
		{Bits: 1 << 30, Rumor: true},
	}
	for _, m := range msgs {
		for _, wantsPull := range []bool{false, true} {
			raw := appendCallFrame(nil, 300, 7, true, wantsPull, &m)
			fr, err := parseFrame(raw)
			if err != nil {
				t.Fatalf("parse %+v: %v", m, err)
			}
			if fr.typ != frameCall || !fr.hasPayload || fr.wantsPull != wantsPull {
				t.Fatalf("header mismatch: %+v", fr)
			}
			if fr.round != 300 || fr.src != 7 {
				t.Fatalf("round/src mismatch: %+v", fr)
			}
			if !reflect.DeepEqual(fr.msg, m) {
				t.Fatalf("message mismatch:\n sent %#v\n got  %#v", m, fr.msg)
			}
		}
		raw := appendRespFrame(nil, 2, 9, &m)
		fr, err := parseFrame(raw)
		if err != nil {
			t.Fatalf("parse resp %+v: %v", m, err)
		}
		if fr.typ != frameResp || !fr.hasPayload {
			t.Fatalf("resp header mismatch: %+v", fr)
		}
		if !reflect.DeepEqual(fr.msg, m) {
			t.Fatalf("resp message mismatch:\n sent %#v\n got  %#v", m, fr.msg)
		}
	}
}

// TestCodecBareFrames covers payload-free calls: pull requests and the
// bare contact frames out-of-model kinds produce.
func TestCodecBareFrames(t *testing.T) {
	for _, wantsPull := range []bool{true, false} {
		raw := appendCallFrame(nil, 1, 0, false, wantsPull, nil)
		fr, err := parseFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if fr.hasPayload || fr.wantsPull != wantsPull {
			t.Fatalf("bare frame mismatch: %+v", fr)
		}
	}
}

// TestCodecRejectsGarbage pins the decode error paths: truncations at every
// boundary and unknown frame types must error, not panic or misparse.
func TestCodecRejectsGarbage(t *testing.T) {
	good := appendCallFrame(nil, 5, 3, true, true, &phonecall.Message{Value: 1, IDs: []phonecall.NodeID{2, 3}})
	for cut := 0; cut < len(good); cut++ {
		if _, err := parseFrame(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := parseFrame([]byte{99, 0, 1, 1}); err == nil {
		t.Error("unknown frame type accepted")
	}
	if _, err := parseFrame(append(append([]byte(nil), good...), 0xAA)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := parseFrame(overflowFrame()); err == nil {
		t.Error("id count whose byte size wraps to 0 accepted")
	}
}

// overflowFrame is a 24-byte call frame whose ID count (1<<61, sent as
// count+1) times 8 wraps to 0: a decoder that multiplies before bounding
// accepts the empty ID block and panics allocating 1<<61 IDs.
func overflowFrame() []byte {
	raw := []byte{frameCall, flagPayload, 1, 1}
	raw = append(raw, make([]byte, 8)...)       // value
	raw = append(raw, 0, phonecall.TagHoldings) // bits, tag
	return binary.AppendUvarint(raw, 1<<61+1)
}

// TestZigzag pins the signed Bits mapping.
func TestZigzag(t *testing.T) {
	for _, v := range []int{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round-trips to %d", v, got)
		}
	}
}
