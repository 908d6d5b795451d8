package feed

import (
	"encoding/binary"
	"errors"
)

// UnitHeaderLen is the size of the sequenced unit header that precedes the
// messages in every datagram: length (2), count (1), unit (1), sequence (4).
const UnitHeaderLen = 8

// UnitHeader is the datagram-level header of a sequenced feed. An exchange
// often partitions its feed across units/multicast groups (§2); each unit
// numbers its messages independently so receivers can detect loss.
type UnitHeader struct {
	Length uint16 // total datagram length including this header
	Count  uint8  // messages in this datagram
	Unit   uint8  // feed partition id
	Seq    uint32 // sequence number of the first message
}

// AppendUnitHeader appends h to b.
func AppendUnitHeader(b []byte, h UnitHeader) []byte {
	b = binary.BigEndian.AppendUint16(b, h.Length)
	b = append(b, h.Count, h.Unit)
	return binary.BigEndian.AppendUint32(b, h.Seq)
}

// DecodeUnitHeader parses the unit header from the front of b and returns
// the message bytes.
func DecodeUnitHeader(b []byte, h *UnitHeader) ([]byte, error) {
	if len(b) < UnitHeaderLen {
		return nil, ErrShort
	}
	h.Length = binary.BigEndian.Uint16(b)
	h.Count = b[2]
	h.Unit = b[3]
	h.Seq = binary.BigEndian.Uint32(b[4:])
	if int(h.Length) < UnitHeaderLen || int(h.Length) > len(b) {
		return nil, ErrShort
	}
	return b[UnitHeaderLen:h.Length], nil
}

// Packer accumulates messages for one feed unit and emits sequenced
// datagrams, packing "multiple individual update messages ... into each
// packet for efficiency" (§2). Flush policy belongs to the caller: real
// feeds flush when a burst's messages are drained or the datagram nears the
// exchange's maximum.
type Packer struct {
	variant *Variant
	unit    uint8
	seq     uint32 // next sequence number to assign
	count   int
	buf     []byte
}

// NewPacker returns a packer for the given unit in the variant's format.
// Sequence numbers start at 1, as on real feeds.
func NewPacker(v *Variant, unit uint8) *Packer {
	p := &Packer{variant: v, unit: unit, seq: 1}
	p.reset()
	return p
}

func (p *Packer) reset() {
	p.buf = AppendUnitHeader(p.buf[:0], UnitHeader{Unit: p.unit})
	p.count = 0
}

// Variant returns the packer's encoding variant.
func (p *Packer) Variant() *Variant { return p.variant }

// Pending returns the number of messages buffered and not yet flushed.
func (p *Packer) Pending() int { return p.count }

// NextSeq returns the sequence number the next added message will get.
func (p *Packer) NextSeq() uint32 { return p.seq + uint32(p.count) }

// SetNextSeq adopts seq as the next sequence number to assign. A hot-standby
// exchange tracks the primary's feed this way: each journaled datagram
// advances the shadow packer so a promoted backup continues the unit's
// numbering without a discontinuity — downstream receivers see the blackout
// as an ordinary gap. Only legal with no buffered messages.
func (p *Packer) SetNextSeq(seq uint32) {
	if p.count > 0 {
		panic("feed: SetNextSeq with messages pending")
	}
	p.seq = seq
}

// Add encodes m into the pending datagram. It reports whether the message
// fit; when false, the caller must Flush and retry (the datagram is at the
// exchange's maximum).
func (p *Packer) Add(m *Msg) bool {
	if len(p.buf)+p.variant.size(m.Type) > p.variant.MaxDgram || p.count == 255 {
		return false
	}
	p.buf = p.variant.Append(p.buf, m)
	p.count++
	return true
}

// Flush finalizes the pending datagram and passes it to emit. The slice is
// only valid during the call. Flushing an empty packer is a no-op.
func (p *Packer) Flush(emit func(datagram []byte)) {
	if p.count == 0 {
		return
	}
	binary.BigEndian.PutUint16(p.buf, uint16(len(p.buf)))
	p.buf[2] = uint8(p.count)
	binary.BigEndian.PutUint32(p.buf[4:], p.seq)
	p.seq += uint32(p.count)
	emit(p.buf)
	p.reset()
}

// ErrGap is returned by the Reassembler when a sequence gap is detected.
var ErrGap = errors.New("feed: sequence gap")

// GapInfo describes a detected loss.
type GapInfo struct {
	Unit     uint8
	Expected uint32
	Got      uint32
	MsgsLost uint32
}

// Reassembler consumes datagrams for one unit, verifies sequencing, and
// yields decoded messages in order. Out-of-order or duplicate datagrams
// (possible under A/B arbitration) are dropped as already-seen; gaps are
// reported, not healed — the simulator models feeds without retransmission,
// as UDP multicast feeds are.
type Reassembler struct {
	unit    uint8
	nextSeq uint32

	// OnGap, if set, is called when a gap is observed.
	OnGap func(GapInfo)
	// OnDup, if set, is called for every datagram dropped as already seen.
	OnDup func()

	msgs     uint64
	gaps     uint64
	lostMsgs uint64
	dups     uint64

	// scratch is the Msg passed to Consume callbacks; hoisting it off the
	// stack keeps Consume allocation-free (a stack Msg escapes through the
	// dynamic callback). The pointer is only valid during the callback.
	scratch Msg
}

// NewReassembler returns a reassembler expecting unit's sequence 1 first.
func NewReassembler(unit uint8) *Reassembler {
	return &Reassembler{unit: unit, nextSeq: 1}
}

// Resync moves the expected sequence without recording a gap — used when
// joining a stream mid-flight (late subscriber, mid-stream capture).
func (r *Reassembler) Resync(seq uint32) { r.nextSeq = seq }

// Stats returns totals: messages delivered, gap events, messages lost, and
// datagrams dropped as already seen — a second publisher's copy, or a
// datagram overtaken by a later one (the reassembler holds nothing back).
func (r *Reassembler) Stats() (msgs, gaps, lost, dups uint64) {
	return r.msgs, r.gaps, r.lostMsgs, r.dups
}

// Consume parses datagram, delivering each in-sequence message to fn. It
// returns ErrGap (after delivering the datagram's messages — they are still
// valid data) when a gap preceded this datagram, or a decode error. The
// *Msg passed to fn is reused across messages and calls: it is only valid
// during the callback; copy it to retain it.
func (r *Reassembler) Consume(datagram []byte, fn func(*Msg)) error {
	var h UnitHeader
	body, err := DecodeUnitHeader(datagram, &h)
	if err != nil {
		return err
	}
	if h.Unit != r.unit {
		return nil // not ours; receivers subscribe per-unit
	}
	end := h.Seq + uint32(h.Count)
	if end <= r.nextSeq {
		r.dups++ // duplicate (e.g. the B feed's copy)
		if r.OnDup != nil {
			r.OnDup()
		}
		return nil
	}
	gapped := false
	var gap GapInfo
	if h.Seq > r.nextSeq {
		gapped = true
		gap = GapInfo{Unit: h.Unit, Expected: r.nextSeq, Got: h.Seq, MsgsLost: h.Seq - r.nextSeq}
		r.gaps++
		r.lostMsgs += uint64(gap.MsgsLost)
	}
	// Skip messages we've already delivered (partial overlap).
	skip := uint32(0)
	if h.Seq < r.nextSeq {
		skip = r.nextSeq - h.Seq
	}
	r.scratch = Msg{}
	m := &r.scratch
	for i := uint32(0); i < uint32(h.Count); i++ {
		body, err = Decode(body, m)
		if err != nil {
			return err
		}
		if i < skip {
			continue
		}
		r.msgs++
		if fn != nil {
			fn(m)
		}
	}
	r.nextSeq = end
	if gapped {
		if r.OnGap != nil {
			r.OnGap(gap)
		}
		return ErrGap
	}
	return nil
}

// Arbiter performs A/B feed arbitration with gap filling: exchanges publish
// each datagram on two redundant paths; the receiver delivers in sequence,
// taking whichever copy arrives first. When the fast path drops a datagram
// (rain fade on microwave, §2), later fast-path datagrams are *held* in a
// reorder buffer until the slow path's copy fills the hole — head-of-line
// blocking is the price of losslessness. Only when the buffer exceeds
// MaxHold datagrams is the hole declared lost and skipped.
type Arbiter struct {
	unit    uint8
	nextSeq uint32
	pending map[uint32][]byte // first-arrived copy of future datagrams, by start seq

	// MaxHold bounds the reorder buffer in datagrams; exceeding it declares
	// the oldest hole lost.
	MaxHold int

	// OnGap fires when a hole is declared lost (both copies gone).
	OnGap func(GapInfo)

	// Stats. A win is counted for the path whose copy of a datagram
	// arrived first (whether delivered immediately or held).
	AWins, BWins uint64
	msgs         uint64
	gaps         uint64
	lostMsgs     uint64
	dups         uint64
	// HeldMax is the reorder buffer's high-water mark.
	HeldMax int
}

// NewArbiter returns a gap-filling arbiter for unit.
func NewArbiter(unit uint8) *Arbiter {
	return &Arbiter{unit: unit, nextSeq: 1, pending: make(map[uint32][]byte), MaxHold: 64}
}

// Stats returns totals: messages delivered, gap events declared, messages
// lost on both paths, and datagrams dropped as already seen (the losing
// path's copy, or a datagram arriving after its hole was declared lost).
func (a *Arbiter) Stats() (msgs, gaps, lost, dups uint64) {
	return a.msgs, a.gaps, a.lostMsgs, a.dups
}

// Held returns the number of datagrams currently in the reorder buffer.
func (a *Arbiter) Held() int { return len(a.pending) }

// ConsumeA feeds a datagram that arrived on the A path.
func (a *Arbiter) ConsumeA(dgram []byte, fn func(*Msg)) error {
	return a.consume(dgram, fn, true)
}

// ConsumeB feeds a datagram that arrived on the B path.
func (a *Arbiter) ConsumeB(dgram []byte, fn func(*Msg)) error {
	return a.consume(dgram, fn, false)
}

func (a *Arbiter) consume(dgram []byte, fn func(*Msg), isA bool) error {
	var h UnitHeader
	if _, err := DecodeUnitHeader(dgram, &h); err != nil {
		return err
	}
	if h.Unit != a.unit {
		return nil
	}
	end := h.Seq + uint32(h.Count)
	if end <= a.nextSeq {
		a.dups++ // stale duplicate
		return nil
	}
	if _, dup := a.pending[h.Seq]; dup {
		a.dups++ // the other path's copy already holds this seq
		return nil
	}
	win := func() {
		if isA {
			a.AWins++
		} else {
			a.BWins++
		}
	}
	if h.Seq <= a.nextSeq {
		win()
		if err := a.deliver(dgram, h, fn); err != nil {
			return err
		}
		return a.drain(fn)
	}
	// Future datagram: hold it for in-order delivery.
	win()
	a.pending[h.Seq] = append([]byte(nil), dgram...)
	if len(a.pending) > a.HeldMax {
		a.HeldMax = len(a.pending)
	}
	if len(a.pending) > a.MaxHold {
		a.declareLoss()
		return a.drain(fn)
	}
	return nil
}

// deliver emits the datagram's not-yet-delivered messages and advances the
// sequence.
func (a *Arbiter) deliver(dgram []byte, h UnitHeader, fn func(*Msg)) error {
	body := dgram[UnitHeaderLen:h.Length]
	skip := uint32(0)
	if h.Seq < a.nextSeq {
		skip = a.nextSeq - h.Seq
	}
	var m Msg
	var err error
	for i := uint32(0); i < uint32(h.Count); i++ {
		body, err = Decode(body, &m)
		if err != nil {
			return err
		}
		if i < skip {
			continue
		}
		a.msgs++
		if fn != nil {
			fn(&m)
		}
	}
	a.nextSeq = h.Seq + uint32(h.Count)
	return nil
}

// drain delivers any held datagrams now contiguous with the sequence.
func (a *Arbiter) drain(fn func(*Msg)) error {
	for {
		var found []byte
		var foundKey uint32
		var fh UnitHeader
		// The scan below is a pure reduction: stale entries are dropped
		// wherever they appear, and among deliverable candidates the lowest
		// starting sequence wins, so the outcome is independent of the order
		// the map yields its entries in.
		//simlint:allow maporder: full-scan min-reduction (lowest h.Seq wins, stale entries deleted unconditionally); result does not depend on iteration order
		for seq, d := range a.pending {
			var h UnitHeader
			if _, err := DecodeUnitHeader(d, &h); err != nil {
				delete(a.pending, seq)
				continue
			}
			if h.Seq+uint32(h.Count) <= a.nextSeq {
				delete(a.pending, seq) // became stale
				continue
			}
			if h.Seq <= a.nextSeq && (found == nil || h.Seq < fh.Seq) {
				found, foundKey, fh = d, seq, h
			}
		}
		if found == nil {
			return nil
		}
		delete(a.pending, foundKey)
		if err := a.deliver(found, fh, fn); err != nil {
			return err
		}
	}
}

// declareLoss gives up on the oldest hole: advance to the earliest held
// datagram, recording what was skipped.
func (a *Arbiter) declareLoss() {
	var lo uint32
	first := true
	//simlint:allow maporder: pure min-reduction over held sequence numbers; result does not depend on iteration order
	for seq := range a.pending {
		if first || seq < lo {
			lo, first = seq, false
		}
	}
	if first || lo <= a.nextSeq {
		return
	}
	gap := GapInfo{Unit: a.unit, Expected: a.nextSeq, Got: lo, MsgsLost: lo - a.nextSeq}
	a.gaps++
	a.lostMsgs += uint64(gap.MsgsLost)
	a.nextSeq = lo
	if a.OnGap != nil {
		a.OnGap(gap)
	}
}
