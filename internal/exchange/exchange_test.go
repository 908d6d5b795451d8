package exchange

import (
	"math/rand"
	"testing"

	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

func testUniverse() *market.Universe {
	u := market.NewUniverse()
	u.Add("AAPL", market.Equity, 0)
	u.Add("MSFT", market.Equity, 0)
	u.Add("SPY", market.ETF, 0)
	u.Add("ZTS", market.Equity, 0)
	return u
}

type fixture struct {
	sched     *sim.Scheduler
	u         *market.Universe
	ex        *Exchange
	client    *orderentry.ClientSession
	oeNIC     *netsim.NIC
	clientMux *netsim.StreamMux
	mdRx      *netsim.NIC
	mdMsgs    []feed.Msg
	reasm     map[uint8]*feed.Reassembler
}

// newFixture wires an exchange, one order-entry client, and one market-data
// receiver joined to every partition group, all over direct 10G links.
func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{sched: sim.NewScheduler(21), u: testUniverse(), reasm: make(map[uint8]*feed.Reassembler)}
	pmap := mcast.NewMap(mcast.NewPartitioner(f.u, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	f.ex = New(f.sched, f.u, pmap, Config{
		ID: 1, Name: "EXCH-A", Variant: feed.ExchangeA,
		MatchLatency: 2 * sim.Microsecond, HostID: 100,
	})

	// Market-data receiver.
	mdHost := netsim.NewHost(f.sched, "md-rx")
	f.mdRx = mdHost.AddNIC("md", 200)
	netsim.Connect(f.ex.MDNIC().Port, f.mdRx.Port, units.Rate10G, 0)
	for i, g := range pmap.Groups() {
		f.mdRx.Join(g)
		f.reasm[uint8(i)] = feed.NewReassembler(uint8(i))
	}
	f.mdRx.OnFrame = func(_ *netsim.NIC, fr *netsim.Frame) {
		var uf pkt.UDPFrame
		if err := pkt.ParseUDPFrame(fr.Data, &uf); err != nil {
			t.Fatalf("md frame parse: %v", err)
		}
		var h feed.UnitHeader
		if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err != nil {
			t.Fatalf("unit header: %v", err)
		}
		f.reasm[h.Unit].Consume(uf.Payload, func(m *feed.Msg) {
			f.mdMsgs = append(f.mdMsgs, *m)
		})
	}

	// Order-entry client.
	oeHost := netsim.NewHost(f.sched, "client")
	oeNIC := oeHost.AddNIC("oe", 300)
	netsim.Connect(oeNIC.Port, f.ex.OENIC().Port, units.Rate10G, 500*sim.Nanosecond)
	clientMux := netsim.NewStreamMux(oeNIC)
	f.oeNIC, f.clientMux = oeNIC, clientMux
	_, exPort := f.ex.AcceptSession(oeNIC.Addr(40000))
	cs := netsim.NewStream(oeNIC, 40000, f.ex.OENIC().Addr(exPort))
	clientMux.Register(cs)
	f.client = orderentry.NewClientSession(func(b []byte) { cs.Write(b) })
	cs.OnData = func(b []byte) {
		if err := f.client.Receive(b); err != nil {
			t.Fatalf("client receive: %v", err)
		}
	}
	return f
}

func (f *fixture) run() { f.sched.Run() }

func TestExchangeLogonAndAck(t *testing.T) {
	f := newFixture(t)
	var acks []uint64
	f.client.OnAck = func(id uint64) { acks = append(acks, id) }
	f.sched.At(0, func() {
		f.client.Logon()
	})
	f.sched.After(sim.Millisecond, func() {
		aapl, _ := f.u.Lookup("AAPL")
		f.client.NewOrder(1, aapl, market.Buy, 1500000, 100)
	})
	f.run()
	if !f.client.LoggedOn() {
		t.Fatal("logon failed")
	}
	if len(acks) != 1 || acks[0] != 1 {
		t.Fatalf("acks = %v", acks)
	}
	// The resting add was published on AAPL's partition (unit 0 = letter A).
	if len(f.mdMsgs) != 1 || f.mdMsgs[0].Type != feed.MsgAddOrder {
		t.Fatalf("md = %+v", f.mdMsgs)
	}
	if f.mdMsgs[0].SymbolString() != "AAPL" || f.mdMsgs[0].Qty != 100 {
		t.Fatalf("add msg = %+v", f.mdMsgs[0])
	}
}

func TestExchangeMatchAndFillBothSides(t *testing.T) {
	f := newFixture(t)
	type fill struct {
		id   uint64
		qty  market.Qty
		done bool
	}
	var fills []fill
	f.client.OnFill = func(id uint64, q market.Qty, _ market.Price, done bool) {
		fills = append(fills, fill{id, q, done})
	}
	aapl, _ := f.u.Lookup("AAPL")
	f.sched.At(0, func() { f.client.Logon() })
	f.sched.After(sim.Millisecond, func() {
		f.client.NewOrder(1, aapl, market.Buy, 1500000, 100)
	})
	f.sched.After(2*sim.Millisecond, func() {
		f.client.NewOrder(2, aapl, market.Sell, 1500000, 60)
	})
	f.run()
	if len(fills) != 2 {
		t.Fatalf("fills = %+v", fills)
	}
	// Resting buy partially filled; incoming sell fully filled.
	for _, fl := range fills {
		if fl.qty != 60 {
			t.Fatalf("fill qty = %d", fl.qty)
		}
		if fl.id == 2 && !fl.done {
			t.Fatal("incoming order should be done")
		}
		if fl.id == 1 && fl.done {
			t.Fatal("resting order should remain open (40 left)")
		}
	}
	st, ok := f.client.Order(1)
	if !ok || st.Qty != 40 || st.Filled != 60 {
		t.Fatalf("order1 = %+v", st)
	}
	// Feed saw: add(100), then executed(60). No add for the fully-matched
	// incoming order.
	var types []feed.MsgType
	for _, m := range f.mdMsgs {
		types = append(types, m.Type)
	}
	if len(types) != 2 || types[0] != feed.MsgAddOrder || types[1] != feed.MsgOrderExecuted {
		t.Fatalf("md types = %v", types)
	}
	// Exchange BBO reflects the remaining 40.
	if bbo := f.ex.BBO(aapl); bbo.Bid.Size != 40 {
		t.Fatalf("BBO = %+v", bbo)
	}
}

func TestExchangeCancelAndRace(t *testing.T) {
	f := newFixture(t)
	var cancelAcks, cancelRejects int
	f.client.OnCancelAck = func(uint64) { cancelAcks++ }
	f.client.OnCancelReject = func(uint64) { cancelRejects++ }
	aapl, _ := f.u.Lookup("AAPL")
	f.sched.At(0, func() { f.client.Logon() })
	f.sched.After(sim.Millisecond, func() {
		f.client.NewOrder(1, aapl, market.Buy, 1500000, 100)
	})
	f.sched.After(2*sim.Millisecond, func() { f.client.Cancel(1) })
	// Cancel of an unknown order races to rejection.
	f.sched.After(3*sim.Millisecond, func() { f.client.Cancel(77) })
	f.run()
	if cancelAcks != 1 || cancelRejects != 1 {
		t.Fatalf("cancelAcks=%d cancelRejects=%d", cancelAcks, cancelRejects)
	}
	// Delete published on the feed.
	last := f.mdMsgs[len(f.mdMsgs)-1]
	if last.Type != feed.MsgDeleteOrder {
		t.Fatalf("last md = %+v", last)
	}
}

func TestExchangeRejectsInvalid(t *testing.T) {
	f := newFixture(t)
	var reasons []orderentry.RejectReason
	f.client.OnReject = func(_ uint64, r orderentry.RejectReason) { reasons = append(reasons, r) }
	f.sched.At(0, func() { f.client.Logon() })
	f.sched.After(sim.Millisecond, func() {
		f.client.NewOrder(1, 999, market.Buy, 100, 10) // unknown symbol
		f.client.NewOrder(2, 1, market.Buy, 0, 10)     // bad price
		f.client.NewOrder(3, 1, market.Buy, 100, 0)    // bad qty
	})
	f.run()
	if len(reasons) != 3 {
		t.Fatalf("rejects = %v", reasons)
	}
	want := []orderentry.RejectReason{
		orderentry.RejectUnknownSymbol, orderentry.RejectBadPrice, orderentry.RejectBadQty,
	}
	for i := range want {
		if reasons[i] != want[i] {
			t.Fatalf("rejects = %v, want %v", reasons, want)
		}
	}
}

func TestExchangeModify(t *testing.T) {
	f := newFixture(t)
	aapl, _ := f.u.Lookup("AAPL")
	var modAcked bool
	f.client.OnAck = func(uint64) { modAcked = true }
	f.sched.At(0, func() { f.client.Logon() })
	f.sched.After(sim.Millisecond, func() {
		f.client.NewOrder(1, aapl, market.Buy, 1500000, 100)
	})
	f.sched.After(2*sim.Millisecond, func() { f.client.Modify(1, 1499000, 80) })
	f.run()
	if !modAcked {
		t.Fatal("modify not acked")
	}
	if bbo := f.ex.BBO(aapl); bbo.Bid.Price != 1499000 || bbo.Bid.Size != 80 {
		t.Fatalf("BBO after modify = %+v", bbo)
	}
	last := f.mdMsgs[len(f.mdMsgs)-1]
	if last.Type != feed.MsgModifyOrder || last.Price != 1499000 {
		t.Fatalf("modify md = %+v", last)
	}
}

func TestExchangeMatchLatencyCharged(t *testing.T) {
	f := newFixture(t)
	var ackAt sim.Time
	f.client.OnAck = func(uint64) { ackAt = f.sched.Now() }
	var sentAt sim.Time
	f.sched.At(0, func() { f.client.Logon() })
	f.sched.After(sim.Millisecond, func() {
		sentAt = f.sched.Now()
		aapl, _ := f.u.Lookup("AAPL")
		f.client.NewOrder(1, aapl, market.Buy, 1500000, 100)
	})
	f.run()
	rtt := ackAt.Sub(sentAt)
	// RTT ≥ 2× (propagation 500ns) + match latency 2µs.
	if rtt < 3*sim.Microsecond {
		t.Fatalf("order RTT = %v, too fast for a 2µs engine", rtt)
	}
	if rtt > 20*sim.Microsecond {
		t.Fatalf("order RTT = %v, too slow", rtt)
	}
}

func TestPublishBurstPacksPartitions(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(5))
	f.sched.At(0, func() { f.ex.PublishBurst(rng, 500) })
	f.run()
	if len(f.mdMsgs) != 500 {
		t.Fatalf("received %d md messages, want 500", len(f.mdMsgs))
	}
	// Packing means far fewer datagrams than messages.
	if f.ex.Published >= 500 {
		t.Fatalf("datagrams = %d, packing ineffective", f.ex.Published)
	}
	// No sequence gaps on any unit.
	for unit, r := range f.reasm {
		if _, gaps, lost, _ := r.Stats(); gaps != 0 || lost != 0 {
			t.Fatalf("unit %d: gaps=%d lost=%d", unit, gaps, lost)
		}
	}
}

// TestExchangeGapRecovery drops a market-data frame on the wire and
// verifies the receiver recovers the lost messages over the exchange's
// replay service.
func TestExchangeGapRecovery(t *testing.T) {
	f := newFixture(t)

	// The recovery stream shares the client host's order-entry NIC (the
	// link to the exchange is already up).
	exPort := f.ex.AcceptRecoverySession(f.oeNIC.Addr(46000))
	cs := netsim.NewStream(f.oeNIC, 46000, f.ex.OENIC().Addr(exPort))
	f.clientMux.Register(cs)

	// Unit 0 (letter-A symbols) carries the test traffic. The recovery
	// client's reassembler consumes what the md receiver forwards, with one
	// datagram deliberately dropped.
	client := feed.NewRecoveryClient(0, func(req []byte) { cs.Write(req) })
	var recovered []uint64
	cs.OnData = func(b []byte) {
		if err := client.ReceiveRecovery(b, func(m *feed.Msg) {
			recovered = append(recovered, m.OrderID)
		}); err != nil {
			t.Fatalf("recovery: %v", err)
		}
	}
	var live int
	dropNth := 2 // drop the 2nd unit-0 datagram off the wire
	seen := 0
	f.mdRx.OnFrame = func(_ *netsim.NIC, fr *netsim.Frame) {
		var uf pkt.UDPFrame
		if err := pkt.ParseUDPFrame(fr.Data, &uf); err != nil {
			t.Fatalf("md parse: %v", err)
		}
		var h feed.UnitHeader
		if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err != nil {
			t.Fatalf("unit header: %v", err)
		}
		if h.Unit != 0 {
			return
		}
		seen++
		if seen == dropNth {
			return // the wire ate it
		}
		client.Consume(uf.Payload, func(*feed.Msg) { live++ })
	}

	// Drive enough bursts that unit 0 sees several datagrams.
	for i := 0; i < 6; i++ {
		f.sched.At(sim.Time(i)*sim.Time(sim.Millisecond), func() {
			f.ex.PublishBurst(f.sched.Rand(), 40)
		})
	}
	f.run()

	if seen < 3 {
		t.Fatalf("unit 0 saw only %d datagrams; test needs more traffic", seen)
	}
	if client.Requests == 0 {
		t.Fatal("gap never detected")
	}
	if len(recovered) == 0 {
		t.Fatal("nothing recovered")
	}
	if f.ex.RecoveryServer().Served == 0 || f.ex.RecoveryServer().Refused != 0 {
		t.Fatalf("server served=%d refused=%d",
			f.ex.RecoveryServer().Served, f.ex.RecoveryServer().Refused)
	}
	// Conservation: live + recovered covers every unit-0 message published.
	msgs, gaps, lost, _ := client.R.Stats()
	if gaps == 0 {
		t.Fatal("reassembler should have seen the gap")
	}
	if uint64(live) != msgs {
		t.Fatalf("live=%d reassembler=%d", live, msgs)
	}
	if uint64(len(recovered)) != lost {
		t.Fatalf("recovered %d of %d lost messages", len(recovered), lost)
	}
}
