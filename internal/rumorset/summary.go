package rumorset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Summary codec: the compact wire form of "the rumor IDs I hold", in one of
// two forms. The frame that carries a summary says which (the live codec's
// flags byte); the summary itself has no form tag.
//
// Delta varints (AppendSummary / DecodeSummary): the IDs sorted ascending — a
// count prefix, the first ID, then (delta−1) for each successor, exploiting
// that sorted unique IDs have deltas ≥ 1. A dense run costs one byte per
// rumor; the encoding stays cheap for arbitrarily sparse uint32 IDs.
//
// ID-space bitmap: the first held ID as a varint, a varint word count, then
// that many little-endian 64-bit words; bit k of the bitmap stands for rumor
// first+k. A held set spread over a few words — a stream's window — costs 8
// bytes per 64 IDs of span however many of them are held.
//
// The sender uses the bitmap exactly when it is strictly shorter (form), so
// no summary is longer than its delta-varint form, and the charge of a
// holdings message is the length of the form actually sent — on the
// simulator, which sends nothing, the length of the form that would be.
//
// A summary deliberately carries rumor IDs, not slots: slots are a local
// reuse pool, so a frame that lingered in flight across an expiry would
// otherwise alias whatever rumor reused the slot. Decoded IDs that no longer
// resolve (expired mid-flight) are dropped by the merge.

// MaxSummaryIDs bounds the decoded summary length, protecting the decoder
// against hostile count prefixes. It is far above any real in-flight window.
// A bitmap summary holds at most MaxSummaryIDs/64 words.
const MaxSummaryIDs = 1 << 20

const maxSummaryWords = MaxSummaryIDs / 64

// AppendSummary appends the delta-varint summary of ids to dst and returns
// the extended slice. ids must be sorted ascending and duplicate-free (as
// produced by AppendHeld); it may be empty.
func AppendSummary(dst []byte, ids []ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := uint64(0)
	for i, id := range ids {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(id))
		} else {
			dst = binary.AppendUvarint(dst, uint64(id)-prev-1)
		}
		prev = uint64(id)
	}
	return dst
}

// DecodeSummary decodes one delta-varint summary from the front of b,
// appending the IDs to dst. It returns the extended slice and the number of
// bytes consumed. Rejects truncated input, non-monotone deltas (impossible by
// construction — indicates corruption), and IDs overflowing the uint32 space.
func DecodeSummary(dst []ID, b []byte) ([]ID, int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return dst, 0, fmt.Errorf("rumorset: truncated summary count")
	}
	if count > MaxSummaryIDs {
		return dst, 0, fmt.Errorf("rumorset: summary claims %d ids (max %d)", count, MaxSummaryIDs)
	}
	off := n
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return dst, 0, fmt.Errorf("rumorset: truncated summary id %d/%d", i, count)
		}
		off += n
		id := d
		if i > 0 {
			id = prev + 1 + d
		}
		if id > math.MaxUint32 {
			return dst, 0, fmt.Errorf("rumorset: summary id %d overflows uint32", id)
		}
		dst = append(dst, ID(id))
		prev = id
	}
	return dst, off, nil
}

// SummarySize returns the encoded byte length of the delta-varint summary
// over ids without encoding it. ids must be sorted ascending.
func SummarySize(ids []ID) int {
	size := uvarintLen(uint64(len(ids)))
	prev := ^uint64(0) // so that the first ID's "delta−1" is the ID itself
	for _, id := range ids {
		size += uvarintLen(uint64(id) - prev - 1)
		prev = uint64(id)
	}
	return size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// tally is what one ascending pass over a held set learns about its summary:
// how many IDs, the delta-varint form's length, and the lowest and highest ID
// (meaningful when held > 0).
type tally struct {
	held, varintBytes int
	first, last       uint64
}

// form is the one rule that picks a summary's wire form: the bitmap when it
// is strictly shorter than the delta varints, which it never is for an empty
// set or a span past maxSummaryWords. It returns the encoded length of the
// chosen form — the bytes a holdings message is charged for.
func (t tally) form() (summaryBytes int, bitmap bool) {
	if t.held > 0 {
		if words := (t.last-t.first)>>6 + 1; words <= maxSummaryWords {
			if b := uvarintLen(t.first) + uvarintLen(words) + 8*int(words); b < t.varintBytes {
				return b, true
			}
		}
	}
	return t.varintBytes, false
}

// Summary is one held set in its wire forms: the sorted IDs, and — when the
// set spans few enough words — its ID-space bitmap. Bitmap says which form
// Append writes; AppendIDs lists the set whichever form holds it. SetIDs
// fills both forms (the bitmap if it fits), View.Digest the bitmap if it
// fits and the IDs if they are needed, Decode only the form it was sent in.
// A Summary reuses its slices across fills.
type Summary struct {
	IDs    []ID
	Base   ID       // the first ID: bit 0 of Words[0]
	Words  []uint64 // bit k stands for Base+k; empty when the span did not fit
	Bitmap bool
}

// SetIDs fills s from ids (sorted ascending, duplicate-free) and picks its
// form by the rule the digests use. It returns the encoded length.
func (s *Summary) SetIDs(ids []ID) int {
	s.IDs, s.Words, s.Base = append(s.IDs[:0], ids...), s.Words[:0], 0
	t := tally{held: len(ids), varintBytes: SummarySize(ids)}
	if len(ids) == 0 {
		s.Bitmap = false
		return t.varintBytes
	}
	s.Base = ids[0]
	t.first, t.last = uint64(ids[0]), uint64(ids[len(ids)-1])
	if (t.last-t.first)>>6 < maxSummaryWords {
		for _, id := range ids {
			s.Words = setBit(s.Words, uint64(id-s.Base))
		}
	}
	n, bitmap := t.form()
	s.Bitmap = bitmap
	return n
}

// setBit sets bit off of an ID-space bitmap, growing it by zero words.
func setBit(words []uint64, off uint64) []uint64 {
	k := int(off >> 6)
	for len(words) <= k {
		words = append(words, 0)
	}
	words[k] |= 1 << (off & 63)
	return words
}

// Append appends s in its form to dst and returns the extended slice.
func (s *Summary) Append(dst []byte) []byte {
	if !s.Bitmap {
		return AppendSummary(dst, s.IDs)
	}
	dst = binary.AppendUvarint(dst, uint64(s.Base))
	dst = binary.AppendUvarint(dst, uint64(len(s.Words)))
	for _, w := range s.Words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Decode fills s from b, which must hold exactly one summary in the given
// form. Beyond DecodeSummary's checks, a bitmap is rejected unless it is the
// one its set encodes to: at least one and at most MaxSummaryIDs/64 words,
// bit 0 set (Base is the first ID), a non-zero last word, and no set bit past
// ID 2^32−1.
func (s *Summary) Decode(b []byte, bitmap bool) error {
	s.IDs, s.Words, s.Base, s.Bitmap = s.IDs[:0], s.Words[:0], 0, bitmap
	if !bitmap {
		ids, n, err := DecodeSummary(s.IDs, b)
		s.IDs = ids
		if err == nil && n != len(b) {
			err = fmt.Errorf("rumorset: %d trailing bytes after summary", len(b)-n)
		}
		return err
	}
	base, n := binary.Uvarint(b)
	if n <= 0 || base > math.MaxUint32 {
		return fmt.Errorf("rumorset: bad bitmap base")
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count == 0 || count > maxSummaryWords {
		return fmt.Errorf("rumorset: bitmap word count out of range")
	}
	b = b[n:]
	if uint64(len(b)) != 8*count {
		return fmt.Errorf("rumorset: bitmap block is %d bytes for %d words", len(b), count)
	}
	for k := uint64(0); k < count; k++ {
		s.Words = append(s.Words, binary.LittleEndian.Uint64(b[8*k:]))
	}
	last := s.Words[count-1]
	if s.Words[0]&1 == 0 || last == 0 {
		return fmt.Errorf("rumorset: bitmap is not anchored at its first and last ID")
	}
	if top := base + 64*(count-1) + uint64(63-bits.LeadingZeros64(last)); top > math.MaxUint32 {
		return fmt.Errorf("rumorset: bitmap id %d overflows uint32", top)
	}
	s.Base = ID(base)
	return nil
}

// AppendIDs appends the IDs of s in its form, ascending, to dst.
func (s *Summary) AppendIDs(dst []ID) []ID {
	if !s.Bitmap {
		return append(dst, s.IDs...)
	}
	return s.appendBitmapIDs(dst)
}

// appendBitmapIDs appends the IDs s's bitmap holds, ascending, to dst.
func (s *Summary) appendBitmapIDs(dst []ID) []ID {
	for k, w := range s.Words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, s.Base+ID(k<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// bitsAt returns the 64 bits of s's bitmap that stand for the IDs
// [at, at+64), zero where the bitmap does not reach (or was not filled).
func (s *Summary) bitsAt(at uint64) uint64 {
	if len(s.Words) == 0 {
		return 0
	}
	off := int64(at) - int64(s.Base)
	if off < 0 {
		if off <= -64 {
			return 0
		}
		return s.Words[0] << uint(-off)
	}
	k, sh := int(off>>6), uint(off&63)
	if k >= len(s.Words) {
		return 0
	}
	w := s.Words[k] >> sh
	if sh != 0 && k+1 < len(s.Words) {
		w |= s.Words[k+1] << (64 - sh)
	}
	return w
}

// add sets id's bit in s's bitmap if the bitmap reaches that far.
func (s *Summary) add(id ID) {
	if off := uint64(id) - uint64(s.Base); id >= s.Base && off>>6 < uint64(len(s.Words)) {
		s.Words[off>>6] |= 1 << (off & 63)
	}
}

// has reports whether s's bitmap holds id; false where it does not reach.
func (s *Summary) has(id ID) bool {
	off := uint64(id) - uint64(s.Base)
	return id >= s.Base && off>>6 < uint64(len(s.Words)) && s.Words[off>>6]&(1<<(off&63)) != 0
}
