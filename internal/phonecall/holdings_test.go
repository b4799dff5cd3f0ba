package phonecall

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/rumorset"
)

// TestHoldingsViews pins the two shared views by hand: n = 1024 makes the
// payload-free overhead 8 tag bits + 12 counter bits = 20, and b = 256.
func TestHoldingsViews(t *testing.T) {
	net, err := New(Config{N: 1024, Seed: 1, PayloadBits: 256})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name            string
		held, reg       uint64
		empty, complete bool
		bits            int
	}{
		{"nothing registered", 0, 0, true, true, 20},
		{"0 of 2", 0, 0b11, true, false, 20},
		{"1 of 2", 0b10, 0b11, false, false, 20 + 256},
		{"2 of 2", 0b11, 0b11, false, true, 20 + 2*256},
		{"64 of 64", ^uint64(0), ^uint64(0), false, true, 20 + 64*256},
	} {
		v := MaskView{Held: c.held, Registered: c.reg}
		if v.Empty() != c.empty || v.Complete() != c.complete {
			t.Errorf("mask %s: empty=%v complete=%v, want %v %v", c.name, v.Empty(), v.Complete(), c.empty, c.complete)
		}
		want := Message{Tag: TagHoldings, Value: c.held, Rumor: true, Bits: c.bits}
		if m := v.Message(net); !reflect.DeepEqual(m, want) {
			t.Errorf("mask %s: message %+v, want %+v", c.name, m, want)
		}
		if got := net.MessageSize(v.Message(net)); got != c.bits {
			t.Errorf("mask %s: the engine charges %d bits, want %d", c.name, got, c.bits)
		}
	}

	// Holding rumor 0 of the registered {0, 1, 2}.
	v := MaskView{Held: 0b001, Registered: 0b111}
	for _, c := range []struct {
		name    string
		m       Message
		gain    uint64
		partial bool
	}{
		{"not a holdings message", Message{Tag: 1, Value: 0b110}, 0, false},
		{"sender lacks a rumor", Message{Tag: TagHoldings, Value: 0b011}, 0b010, true},
		{"sender holds everything", Message{Tag: TagHoldings, Value: 0b111}, 0b110, false},
		{"unregistered bits are dropped", Message{Tag: TagHoldings, Value: 0b1111}, 0b110, false},
		{"sender holds nothing", Message{Tag: TagHoldings}, 0, true},
	} {
		if gain, partial := v.Merge(c.m); gain != c.gain || partial != c.partial {
			t.Errorf("merge %s: gain %b partial %v, want %b %v", c.name, gain, partial, c.gain, c.partial)
		}
	}

	// The tracker's view is its own words.
	tr := NewRumorTracker(net)
	if err := tr.Inject(7, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(5); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.View(7), (MaskView{Held: 1 << 3, Registered: 1<<3 | 1<<5}); got != want {
		t.Errorf("tracker view %+v, want %+v", got, want)
	}

	// The set view over a real digest. IDs {5, 6, 300} encode as a count byte,
	// 5, the delta 6-5-1 = 0 and the two-byte varint of 300-6-1 = 293: 5 bytes.
	set, err := rumorset.New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []rumorset.ID{300, 5, 6, 9} {
		if err := set.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	set.MarkIDs(2, []rumorset.ID{5, 6, 300})
	for node, c := range map[int]struct {
		ids             []rumorset.ID
		empty, complete bool
		bits            int
	}{
		1: {nil, true, false, 20 + 1*8},
		2: {[]rumorset.ID{5, 6, 300}, false, false, 20 + 5*8 + 3*256},
	} {
		var d rumorset.Summary
		v := set.View()
		held, summaryBytes := v.Digest(&d, node)
		v.Release()
		ids := d.AppendIDs(nil)
		if len(ids) == 0 {
			ids = nil
		}
		sv := SetView{Held: held, Active: set.Active(), SummaryBytes: summaryBytes}
		if !slices.Equal(ids, c.ids) || sv.Empty() != c.empty || sv.Complete() != c.complete {
			t.Errorf("set node %d: ids %v empty=%v complete=%v, want %v %v %v", node, ids, sv.Empty(), sv.Complete(), c.ids, c.empty, c.complete)
		}
		// The simulator reads the same view off a row snapshot.
		rv := set.View()
		held, snapBytes := rv.SnapshotRow(make([]uint64, set.Words()), node)
		rv.Release()
		if held != sv.Held || snapBytes != sv.SummaryBytes {
			t.Errorf("set node %d: snapshot says %d rumors in %d bytes, digest %d in %d", node, held, snapBytes, sv.Held, sv.SummaryBytes)
		}
		if m, want := sv.Message(net), (Message{Tag: TagHoldings, Rumor: true, Bits: c.bits}); !reflect.DeepEqual(m, want) {
			t.Errorf("set node %d: message %+v, want %+v", node, m, want)
		}
	}
	if sv := (SetView{Held: 4, Active: 4}); sv.Empty() || !sv.Complete() {
		t.Errorf("set view holding 4 of 4 active: empty=%v complete=%v", sv.Empty(), sv.Complete())
	}
	if sv := (SetView{}); !sv.Empty() || !sv.Complete() {
		t.Errorf("set view over a drained window: empty=%v complete=%v", sv.Empty(), sv.Complete())
	}
}
