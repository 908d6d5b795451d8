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
