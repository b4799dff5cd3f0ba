package phonecall

import "math/bits"

// A node's rumor holdings as the protocols' decision table and the wire see
// them, one view per representation. The scenario ledgers' engine callbacks
// and the live node step both read their storage into a view and ask it, so
// the simulator and the live runtime cannot decide or charge differently.

// holdingsSize is the charge for a holdings message: the overhead of a
// payload-free message, the holdings' own encoding beyond that, and one b-bit
// payload per carried rumor (Theorem 2's accounting).
func (net *Network) holdingsSize(encoding, rumors int) int {
	return net.MessageSize(Message{Tag: TagHoldings}) + encoding + rumors*net.cfg.PayloadBits
}

// MaskView is the 64-bit mask's view: the rumors a node holds among the
// Registered ones, one bit each.
type MaskView struct{ Held, Registered uint64 }

// View reads node's holdings. Callable wherever Held is.
func (t *RumorTracker) View(node int) MaskView {
	return MaskView{Held: t.held[node], Registered: t.used.Load()}
}

// Empty reports that the node holds no rumor.
func (v MaskView) Empty() bool { return v.Held == 0 }

// Complete reports that the node holds every registered rumor (true, like
// Empty, before the first registration).
func (v MaskView) Complete() bool { return v.Held == v.Registered }

// Message carries the holdings as the mask in Value.
func (v MaskView) Message(net *Network) Message {
	return Message{Tag: TagHoldings, Value: v.Held, Rumor: true, Bits: net.holdingsSize(0, bits.OnesCount64(v.Held))}
}

// Merge reads a received message against the view: gain is the registered
// rumors it carries that the node lacks, partial reports a holdings message
// whose sender still lacks a registered rumor. Any other message is neither.
func (v MaskView) Merge(m Message) (gain uint64, partial bool) {
	if m.Tag != TagHoldings {
		return 0, false
	}
	got := m.Value & v.Registered
	return got &^ v.Held, got != v.Registered
}

// SetView is a rumor-set row's view, read off one rumorset digest (Digest,
// or SnapshotRow where the row itself travels): how many of the Active
// in-flight rumors the node holds and the encoded size of their summary in
// the form it is sent in. Merging a received digest is rumorset's
// MergeSummary or MergeRow.
type SetView struct{ Held, Active, SummaryBytes int }

// Empty reports that the node holds no in-flight rumor.
func (v SetView) Empty() bool { return v.Held == 0 }

// Complete reports that the node holds every in-flight rumor.
func (v SetView) Complete() bool { return v.Held == v.Active }

// Message announces the holdings and charges them — the summary's bytes and
// one payload per held rumor — without transporting them: the receiver reads
// the digest where the sender's engine keeps it (the simulator's per-round row
// snapshot, the live runtime's own summary frame).
func (v SetView) Message(net *Network) Message {
	return Message{Tag: TagHoldings, Rumor: true, Bits: net.holdingsSize(v.SummaryBytes*8, v.Held)}
}
