package live

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
)

// The compact wire codec shared by every transport. One frame is one
// phone-call event:
//
//	[type:1][flags:1][round:uvarint][src:uvarint][message?]
//
// where type is frameCall (a call: an optional pushed payload plus an
// optional pull request — a bare call with neither still charges the model's
// Δ communication at the receiver) or frameResp (the src node's
// address-oblivious pull response), and src is the dense node index of the
// initiator (calls) or responder (responses). The message block is present
// iff flagPayload is set:
//
//	[value:8 LE][bits:zigzag uvarint][tag:1][idCount+1:uvarint][ids:8 LE each]
//
// Message.From is NOT on the wire: the engine stamps From with the sender's
// ID on every message, so the receiver reconstructs it from src through the
// shared ID directory — one fewer full-entropy word per frame. Value and IDs
// are fixed 64-bit (they carry full-entropy node IDs or bitmasks); round,
// src, bits and the ID count are varints (small in practice). The id count
// is offset by one so a nil IDs slice (0) and an empty non-nil slice (1)
// round-trip distinguishably — delivered inboxes must be bit-identical to
// the engine's.
//
// flagSummary selects the variable-length rumor-summary block instead of the
// message block: the frame body after src is exactly one rumorset summary,
// and flagBitmap says in which form (rumorset/summary.go):
//
//	delta varints:  [count:uvarint][first id:uvarint][id−prev−1:uvarint]...
//	ID bitmap:      [first id:uvarint][words:uvarint][word:8 LE]...  (flagBitmap)
//
// The sender picks the bitmap exactly when it is shorter, so a summary is
// never longer than its delta-varint form, and the frame is charged the
// length of the form it carries. Summary frames carry rumor IDs, never window
// slots, so a frame that lingered in a mailbox across an expiry/reuse cycle
// is harmlessly ignored by the receiver's ID→slot lookup rather than
// mis-marking the slot's new tenant.
const (
	frameCall byte = 1
	frameResp byte = 2

	flagPayload byte = 1 << 0
	flagPull    byte = 1 << 1
	flagRumor   byte = 1 << 2
	flagSummary byte = 1 << 3
	flagBitmap  byte = 1 << 4
)

// frame is a decoded wire frame. msg.From is zero; the receiver stamps it
// from src. Summary frames fill sum, in the form they were sent, instead of
// msg.
type frame struct {
	typ        byte
	round, src int
	hasPayload bool
	hasSummary bool
	wantsPull  bool
	msg        phonecall.Message
	sum        rumorset.Summary
}

// appendMessage encodes the message block.
func appendMessage(dst []byte, m *phonecall.Message) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, m.Value)
	dst = binary.AppendUvarint(dst, zigzag(m.Bits))
	dst = append(dst, m.Tag)
	if m.IDs == nil {
		dst = binary.AppendUvarint(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(m.IDs))+1)
		for _, id := range m.IDs {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
		}
	}
	return dst
}

// headerLen is the encoded length of a frame's type, flags, round and src.
func headerLen(round, src int) int {
	return 2 + uvarintLen(uint64(round)) + uvarintLen(uint64(src))
}

// appendHeader encodes a frame's type, flags, round and src.
func appendHeader(dst []byte, typ, flags byte, round, src int) []byte {
	dst = append(dst, typ, flags)
	dst = binary.AppendUvarint(dst, uint64(round))
	return binary.AppendUvarint(dst, uint64(src))
}

// messageLen is the encoded length of m's message block.
func messageLen(m *phonecall.Message) int {
	n := 8 + uvarintLen(zigzag(m.Bits)) + 1
	if m.IDs == nil {
		return n + 1
	}
	return n + uvarintLen(uint64(len(m.IDs))+1) + 8*len(m.IDs)
}

// uvarintLen is the length of v as binary.AppendUvarint writes it.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendCallFrame encodes a call from initiator src. The payload is included
// iff hasPayload; wantsPull marks the call as (also) a pull request. The
// rumor flag of the payload travels in the frame flags byte.
func appendCallFrame(dst []byte, round, src int, hasPayload, wantsPull bool, m *phonecall.Message) []byte {
	var flags byte
	if hasPayload {
		flags |= flagPayload
		if m.Rumor {
			flags |= flagRumor
		}
	}
	if wantsPull {
		flags |= flagPull
	}
	dst = appendHeader(dst, frameCall, flags, round, src)
	if hasPayload {
		dst = appendMessage(dst, m)
	}
	return dst
}

// appendRespFrame encodes responder src's pull response.
func appendRespFrame(dst []byte, round, src int, m *phonecall.Message) []byte {
	flags := flagPayload
	if m.Rumor {
		flags |= flagRumor
	}
	return appendMessage(appendHeader(dst, frameResp, flags, round, src), m)
}

// appendSummaryCallFrame encodes a call from initiator src whose payload is a
// rumor summary, in the summary's form.
func appendSummaryCallFrame(dst []byte, round, src int, wantsPull bool, sum *rumorset.Summary) []byte {
	flags := summaryFlags(sum)
	if wantsPull {
		flags |= flagPull
	}
	return sum.Append(appendHeader(dst, frameCall, flags, round, src))
}

// appendSummaryRespFrame encodes responder src's pull response carrying a
// rumor summary, in the summary's form.
func appendSummaryRespFrame(dst []byte, round, src int, sum *rumorset.Summary) []byte {
	return sum.Append(appendHeader(dst, frameResp, summaryFlags(sum), round, src))
}

func summaryFlags(sum *rumorset.Summary) byte {
	flags := flagPayload | flagSummary | flagRumor
	if sum.Bitmap {
		flags |= flagBitmap
	}
	return flags
}

// parseFrame decodes one frame.
func parseFrame(data []byte) (frame, error) {
	return parseFrameBuf(data, rumorset.Summary{})
}

// parseFrameBuf decodes one frame, filling a summary block into sum's slices
// (pass the previous frame's summary back in to keep the drain loop
// allocation-free).
func parseFrameBuf(data []byte, sum rumorset.Summary) (frame, error) {
	var fr frame
	if len(data) < 2 {
		return fr, fmt.Errorf("live: frame too short (%d bytes)", len(data))
	}
	fr.typ = data[0]
	flags := data[1]
	if fr.typ != frameCall && fr.typ != frameResp {
		return fr, fmt.Errorf("live: unknown frame type %d", fr.typ)
	}
	fr.hasPayload = flags&flagPayload != 0 || fr.typ == frameResp
	fr.wantsPull = flags&flagPull != 0
	rest := data[2:]
	round, k := binary.Uvarint(rest)
	if k <= 0 {
		return fr, fmt.Errorf("live: bad round varint")
	}
	rest = rest[k:]
	src, k := binary.Uvarint(rest)
	if k <= 0 {
		return fr, fmt.Errorf("live: bad src varint")
	}
	rest = rest[k:]
	fr.round, fr.src = int(round), int(src)
	if flags&flagSummary != 0 {
		fr.sum = sum
		if err := fr.sum.Decode(rest, flags&flagBitmap != 0); err != nil {
			return fr, fmt.Errorf("live: summary block: %w", err)
		}
		fr.hasPayload = false
		fr.hasSummary = true
		return fr, nil
	}
	if !fr.hasPayload {
		if len(rest) != 0 {
			return fr, fmt.Errorf("live: %d trailing bytes on payload-free frame", len(rest))
		}
		return fr, nil
	}
	if len(rest) < 8 {
		return fr, fmt.Errorf("live: truncated message value")
	}
	fr.msg.Value = binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	zbits, k := binary.Uvarint(rest)
	if k <= 0 {
		return fr, fmt.Errorf("live: bad bits varint")
	}
	rest = rest[k:]
	fr.msg.Bits = unzigzag(zbits)
	if len(rest) < 1 {
		return fr, fmt.Errorf("live: truncated message tag")
	}
	fr.msg.Tag = rest[0]
	rest = rest[1:]
	idc, k := binary.Uvarint(rest)
	if k <= 0 {
		return fr, fmt.Errorf("live: bad id count varint")
	}
	rest = rest[k:]
	if idc > 0 {
		// The count comes off the wire: check it against the bytes that are
		// there instead of multiplying it, which wraps for a hostile value and
		// would size the allocation below.
		count := len(rest) / 8
		if len(rest)%8 != 0 || idc-1 != uint64(count) {
			return fr, fmt.Errorf("live: id block is %d bytes for %d ids", len(rest), idc-1)
		}
		fr.msg.IDs = make([]phonecall.NodeID, count)
		for i := 0; i < count; i++ {
			fr.msg.IDs[i] = phonecall.NodeID(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	} else if len(rest) != 0 {
		return fr, fmt.Errorf("live: %d trailing bytes after message", len(rest))
	}
	fr.msg.Rumor = flags&flagRumor != 0
	return fr, nil
}

// zigzag maps a signed int onto the unsigned varint space (small magnitudes
// stay small; Bits can legitimately be negative in protocol edge cases and
// must round-trip exactly).
func zigzag(v int) uint64 { return uint64((int64(v) << 1) ^ (int64(v) >> 63)) }

func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }
