package feed

import (
	"testing"

	"tradenet/internal/market"
)

var (
	fuzzVariants = []*Variant{Internal, ExchangeA, ExchangeB, ExchangeC}
	fuzzTypes    = []MsgType{MsgTime, MsgAddOrder, MsgOrderExecuted,
		MsgReduceSize, MsgModifyOrder, MsgDeleteOrder, MsgTrade}
)

// wireMsg builds a message of type t holding only the fields t carries on
// the wire, at the widths the encoder writes (an add order's quantity and
// price are 16-bit short forms), so that encode then decode is the identity.
func wireMsg(t MsgType, timeNs uint32, orderID uint64, side uint8, qty uint32, sym string, price, execID uint64) Msg {
	m := Msg{Type: t}
	if t == MsgTime {
		m.EpochSec = timeNs
		return m
	}
	m.TimeNs, m.OrderID = timeNs, orderID
	switch t {
	case MsgAddOrder:
		m.Side, m.Qty, m.Price = market.Side(side), qty&0xFFFF, price&0xFFFF
		m.SetSymbol(sym)
	case MsgOrderExecuted:
		m.Qty, m.ExecID = qty, execID
	case MsgReduceSize:
		m.Qty = qty
	case MsgModifyOrder:
		m.Qty, m.Price = qty, price
	case MsgTrade:
		m.Side, m.Qty, m.Price, m.ExecID = market.Side(side), qty, price, execID
		m.SetSymbol(sym)
	}
	return m
}

// FuzzFeedDecode holds the market-data codec to two properties. On any
// bytes, Decode and DecodeUnitHeader never panic, and every message Decode
// accepts consumes exactly its declared length. On any fields, the message
// a variant's Append writes is that variant's width and decodes back to
// itself with nothing left over.
func FuzzFeedDecode(f *testing.F) {
	for vi, v := range fuzzVariants {
		p := NewPacker(v, uint8(vi))
		for ti, t := range fuzzTypes {
			m := wireMsg(t, 34_200_000+uint32(ti), 1000+uint64(ti), 1, 300, "AAPL", 1_875_000, 77)
			f.Add(v.Append(nil, &m), uint8(vi), uint8(ti), m.TimeNs, m.OrderID, uint8(m.Side), m.Qty, "AAPL", m.Price, m.ExecID)
			p.Add(&m)
		}
		p.Flush(func(dgram []byte) {
			f.Add(append([]byte(nil), dgram...), uint8(vi), uint8(0), uint32(0), uint64(0), uint8(0), uint32(0), "", uint64(0), uint64(0))
		})
	}
	f.Add([]byte{}, uint8(0), uint8(0), uint32(0), uint64(0), uint8(0), uint32(0), "", uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, vi, ti uint8, timeNs uint32, orderID uint64, side uint8, qty uint32, sym string, price, execID uint64) {
		decodeAll(t, data)
		var h UnitHeader
		if msgs, err := DecodeUnitHeader(data, &h); err == nil {
			if len(msgs) != int(h.Length)-UnitHeaderLen {
				t.Fatalf("unit header length %d, message bytes %d", h.Length, len(msgs))
			}
			decodeAll(t, msgs)
		}

		v := fuzzVariants[int(vi)%len(fuzzVariants)]
		want := wireMsg(fuzzTypes[int(ti)%len(fuzzTypes)], timeNs, orderID, side, qty, sym, price, execID)
		wire := v.Append(nil, &want)
		if len(wire) != v.size(want.Type) {
			t.Fatalf("%s %v: encoded %d bytes, want %d", v.Name, want.Type, len(wire), v.size(want.Type))
		}
		var got Msg
		rest, err := Decode(wire, &got)
		if err != nil || len(rest) != 0 || got != want {
			t.Fatalf("%s round trip: err %v, %d bytes left\ngot  %+v\nwant %+v", v.Name, err, len(rest), got, want)
		}
	})
}

// decodeAll walks b message by message until Decode refuses it.
func decodeAll(t *testing.T, b []byte) {
	var m Msg
	for len(b) > 0 {
		rest, err := Decode(b, &m)
		if err != nil {
			return
		}
		if len(b)-len(rest) != int(b[0]) {
			t.Fatalf("decode consumed %d bytes of a %d-byte message", len(b)-len(rest), b[0])
		}
		b = rest
	}
}

// fuzzStream is a valid sequenced stream for one unit: datagram k carries
// 1 + k%4 delete messages whose order ids are their sequence numbers, so a
// receiver's output names the sequence numbers it delivered.
func fuzzStream(unit uint8, n int) (dgrams [][]byte, firstSeq []uint32) {
	p := NewPacker(Internal, unit)
	for k := 0; k < n; k++ {
		firstSeq = append(firstSeq, p.NextSeq())
		for j := 0; j <= k%4; j++ {
			m := Msg{Type: MsgDeleteOrder, OrderID: uint64(p.NextSeq())}
			p.Add(&m)
		}
		p.Flush(func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
	}
	return dgrams, firstSeq
}

// arrival is one datagram of the stream reaching a receiver.
type arrival struct {
	k     int  // index into the stream
	pathA bool // the Arbiter's path
}

// damage turns ops into the arrivals of a damaged stream of n datagrams.
// Each op byte acts on the next unsent datagram: send it (op%4 == 0), drop
// it (1), send a copy of one already sent (2, the copy chosen by op>>2), or
// send the next two swapped (3); bit 7 picks the Arbiter path. The rest of
// the stream follows in order on path A. It reports the copies injected
// and whether any datagram was reordered.
func damage(ops []byte, n int) (arrs []arrival, copies int, reordered bool) {
	next := 0
	for _, op := range ops {
		if next >= n {
			break
		}
		a := op&0x80 == 0
		switch op % 4 {
		case 0:
			arrs = append(arrs, arrival{next, a})
			next++
		case 1:
			next++
		case 2:
			if len(arrs) > 0 {
				arrs = append(arrs, arrival{arrs[int(op>>2)%len(arrs)].k, a})
				copies++
			}
		case 3:
			if next+1 < n {
				arrs = append(arrs, arrival{next + 1, a}, arrival{next, !a})
				next += 2
				reordered = true
			}
		}
	}
	for ; next < n; next++ {
		arrs = append(arrs, arrival{next, true})
	}
	return arrs, copies, reordered
}

// FuzzSequencedDelivery holds the Reassembler and the Arbiter to the
// sequenced-feed contract on a valid stream damaged by drops, copies and
// reordering: delivered sequence numbers strictly increase (so each
// message is delivered at most once) and name only datagrams that arrived;
// delivered plus lost accounts for every sequence number up to the highest
// seen (the Arbiter's held datagrams aside); and the duplicate count is the
// copies injected plus the first arrivals dropped as stale — none when the
// order is intact.
func FuzzSequencedDelivery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0x82, 0, 1, 0, 6, 0})
	f.Add([]byte{3, 0x83, 1, 1, 2, 0x86, 3})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0x8a, 0xfe})

	const unit, n = 5, 40
	dgrams, firstSeq := fuzzStream(unit, n)
	lastSeq := firstSeq[n-1] + uint32(n-1)%4

	f.Fuzz(func(t *testing.T, ops []byte) {
		arrs, copies, reordered := damage(ops, n)
		received := map[int]bool{}
		maxEnd := uint32(1)
		for _, a := range arrs {
			received[a.k] = true
			maxEnd = max(maxEnd, firstSeq[a.k]+uint32(a.k%4)+1)
		}
		// dgramOf maps a sequence number back to its datagram index.
		dgramOf := func(seq uint32) int {
			if seq < 1 || seq > lastSeq {
				t.Fatalf("delivered sequence %d outside the stream", seq)
			}
			k := n - 1
			for firstSeq[k] > seq {
				k--
			}
			return k
		}

		r := NewReassembler(unit)
		arb := NewArbiter(unit)
		arb.MaxHold = 4
		for ri, name := range []string{"reassembler", "arbiter"} {
			var last uint32
			delivered := map[int]bool{}
			deliver := func(m *Msg) {
				seq := uint32(m.OrderID)
				if seq <= last {
					t.Fatalf("%s: delivered sequence %d after %d", name, seq, last)
				}
				last = seq
				k := dgramOf(seq)
				if !received[k] {
					t.Fatalf("%s: delivered sequence %d of datagram %d, which never arrived", name, seq, k)
				}
				delivered[k] = true
			}
			var msgs, lost, dups uint64
			held := 0
			for _, a := range arrs {
				d := dgrams[a.k]
				switch {
				case ri == 0:
					_ = r.Consume(d, deliver)
				case a.pathA:
					_ = arb.ConsumeA(d, deliver)
				default:
					_ = arb.ConsumeB(d, deliver)
				}
			}
			if ri == 0 {
				msgs, _, lost, dups = r.Stats()
			} else {
				msgs, _, lost, dups = arb.Stats()
				held = arb.Held()
				if wins := arb.AWins + arb.BWins; wins+dups != uint64(len(arrs)) {
					t.Fatalf("arbiter: %d wins + %d duplicates, %d arrivals", wins, dups, len(arrs))
				}
			}
			if accounted := msgs + lost; held == 0 && accounted != uint64(maxEnd-1) || accounted > uint64(maxEnd-1) {
				t.Fatalf("%s: %d delivered + %d lost, highest sequence seen %d (%d held)", name, msgs, lost, maxEnd-1, held)
			}
			stale := len(received) - len(delivered) - held
			if dups != uint64(copies+stale) {
				t.Fatalf("%s: %d duplicates, want %d copies + %d stale first arrivals", name, dups, copies, stale)
			}
			if !reordered && dups != uint64(copies) {
				t.Fatalf("%s: %d duplicates in an ordered stream with %d copies", name, dups, copies)
			}
		}
	})
}
