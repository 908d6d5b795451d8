package firm

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"tradenet/internal/exchange"
	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// stratRig is a strategy with a live order path (gateway and exchange) whose
// market data the test injects itself, one normalized datagram at a time, so
// the message sequence reaching Strategy.apply is exactly the script.
type stratRig struct {
	sched   *sim.Scheduler
	u       *market.Universe
	outMap  *mcast.Map
	strat   *Strategy
	packers []*feed.Packer
	ipID    uint16
}

func newStratRig(t *testing.T) *stratRig {
	t.Helper()
	r := &stratRig{sched: sim.NewScheduler(31), u: testUniverse()}
	rawMap := mcast.NewMap(mcast.NewPartitioner(r.u, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	r.outMap = mcast.NewMap(mcast.NewPartitioner(r.u, mcast.ByHash, 8), mcast.NewAllocator(2))
	ex := exchange.New(r.sched, r.u, rawMap, exchange.Config{
		ID: 1, Name: "EXCH", Variant: feed.ExchangeB, MatchLatency: sim.Microsecond, HostID: 100,
	})
	r.strat = NewStrategy(r.sched, r.u, "strat1", 300, r.outMap, StrategyConfig{DecisionLatency: sim.Microsecond})
	gw := NewGateway(r.sched, "gw1", 400, GatewayConfig{TranslateLatency: sim.Microsecond})
	link := func(a, b *netsim.NIC) { netsim.Connect(a.Port, b.Port, units.Rate10G, 200*sim.Nanosecond) }
	link(ex.MDNIC(), netsim.NewHost(r.sched, "mdsink").AddNIC("md", 500)) // the venue's feed goes nowhere
	link(r.strat.OENIC(), gw.InNIC())
	link(gw.ExNIC(), ex.OENIC())
	_, exPort := ex.AcceptSession(gw.ExNIC().Addr(41000))
	gw.ConnectExchange(41000, ex.OENIC().Addr(exPort))
	r.strat.ConnectGateway(42000, gw.InNIC().Addr(gw.AcceptStrategy(r.strat.OENIC().Addr(42000))))
	r.sched.Run()
	if !r.strat.Session().LoggedOn() {
		t.Fatal("strategy session not logged on")
	}
	for i := 0; i < r.outMap.Partitioner().Partitions(); i++ {
		r.packers = append(r.packers, feed.NewPacker(feed.Internal, uint8(i)))
	}
	return r
}

// inject delivers m to the strategy as a one-message datagram on the unit of
// ticker's partition (follow-ups travel on their order's unit, as the
// normalizer routes them).
func (r *stratRig) inject(ticker string, m feed.Msg) {
	part := 0 // an unknown ticker still has to arrive on some unit
	if sym, ok := r.u.Lookup(ticker); ok {
		part = r.outMap.Partitioner().Partition(sym)
	}
	if m.Type == feed.MsgAddOrder {
		m.SetSymbol(ticker)
	}
	p := r.packers[part]
	p.Add(&m)
	g := r.outMap.GroupByIndex(part)
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(g), IP: g, Port: NormalizedPort}
	p.Flush(func(dgram []byte) {
		r.ipID++
		f := netsim.NewFrame()
		f.Data = pkt.AppendUDPFrame(f.Data, pkt.UDPAddr{MAC: pkt.HostMAC(200), IP: pkt.HostIP(200), Port: NormalizedPort}, dst, r.ipID, dgram)
		r.strat.onFrame(r.strat.mdNIC, f)
	})
}

// render prints every book of the universe, best level first.
func (r *stratRig) render() string {
	var sb strings.Builder
	for _, in := range r.u.All() {
		b := r.strat.Book(in.ID)
		fmt.Fprintf(&sb, "%s n=%d bids%v asks%v\n", in.Ticker, b.Orders(), b.Levels(market.Buy, 1<<20), b.Levels(market.Sell, 1<<20))
	}
	return sb.String()
}

// checkIndex asserts the strategy's id index holds exactly the resting
// orders: nothing for an add that never rested or an order a cross consumed.
func (r *stratRig) checkIndex(t *testing.T) {
	t.Helper()
	resting := 0
	for _, in := range r.u.All() {
		resting += r.strat.Book(in.ID).Orders()
	}
	if got := r.strat.orders.Len(); got != resting {
		t.Fatalf("strategy indexes %d orders, its books hold %d", got, resting)
	}
}

func add(id uint64, side market.Side, price uint64, qty uint32) feed.Msg {
	return feed.Msg{Type: feed.MsgAddOrder, OrderID: id, Side: side, Price: price, Qty: qty}
}

// follow builds a message about an existing order: delete, reduce, execute
// or modify (price is carried by modify only).
func follow(typ feed.MsgType, id uint64, price uint64, qty uint32) feed.Msg {
	return feed.Msg{Type: typ, OrderID: id, Price: price, Qty: qty}
}

// A multi-symbol script through every branch of Strategy.apply. The golden
// below was recorded at the commit before the slab-backed books (map-backed
// books, a byOrder map per strategy): the storage change must not move it.
func TestStrategyScriptMatchesGolden(t *testing.T) {
	r := newStratRig(t)
	const B, S = market.Buy, market.Sell
	const del, reduce, exec, modify = feed.MsgDeleteOrder, feed.MsgReduceSize, feed.MsgOrderExecuted, feed.MsgModifyOrder
	for _, st := range []struct {
		ticker string
		m      feed.Msg
	}{
		{"AAPL", add(1001, B, 1000, 100)}, // improves an empty bid: the strategy fires
		{"AAPL", add(1002, B, 1000, 50)},  // joins the level: no fire
		{"AAPL", add(1003, B, 1010, 70)},  // improves: fires
		{"AAPL", add(1004, S, 1020, 80)},
		{"MSFT", add(2001, S, 500, 40)},
		{"MSFT", add(2002, S, 500, 60)},
		{"MSFT", add(2003, B, 500, 70)},  // consumes 2001, part of 2002; never rests
		{"MSFT", add(2004, B, 505, 100)}, // consumes the rest of 2002, rests 70
		{"ZTS", add(3001, B, 300, 10)},
		{"ZTS", add(3001, B, 310, 10)},   // duplicate id: ignored
		{"NOPE", add(9001, B, 1, 1)},     // unknown ticker: ignored
		{"AAPL", add(1005, S, 1010, 30)}, // hits 1003: 40 left on the bid
		{"AAPL", follow(del, 1002, 0, 0)},
		{"AAPL", follow(del, 1002, 0, 0)}, // already gone
		{"AAPL", follow(del, 1005, 0, 0)}, // never rested
		{"MSFT", follow(del, 2001, 0, 0)}, // consumed by 2003
		{"AAPL", follow(reduce, 1001, 0, 30)},
		{"AAPL", follow(exec, 1003, 0, 15)},
		{"AAPL", follow(exec, 1004, 0, 500)}, // more than rests: gone
		{"ZTS", follow(reduce, 3001, 0, 10)}, // to zero: gone
		{"ZTS", add(3001, S, 320, 25)},       // the id is free again
		{"ZTS", add(3002, B, 315, 5)},
		{"ZTS", follow(modify, 3002, 318, 5)},  // reprice
		{"ZTS", follow(modify, 3002, 318, 9)},  // size-up
		{"ZTS", follow(modify, 3002, 318, 4)},  // size-down
		{"ZTS", follow(modify, 3001, 318, 3)},  // reprice into the bid: trades away
		{"ZTS", follow(modify, 7777, 318, 3)},  // unknown
		{"MSFT", follow(modify, 2004, 505, 0)}, // to zero: gone
		{"MSFT", add(1002, B, 490, 20)},        // an AAPL id, long dead, reused on MSFT
		{"MSFT", add(2005, B, 495, 20)},        // improves: fires
	} {
		r.inject(st.ticker, st.m)
		r.checkIndex(t)
	}
	r.sched.Run()
	got := fmt.Sprintf("%smsgs_in=%d orders_sent=%d", r.render(), r.strat.MsgsIn, r.strat.OrdersSent)
	const want = `AAPL n=2 bids[{1010 25 1} {1000 70 1}] asks[]
MSFT n=2 bids[{495 20 1} {490 20 1}] asks[]
ZTS n=1 bids[{318 1 1}] asks[]
msgs_in=30 orders_sent=8`
	if got != want {
		t.Fatalf("final state\n%s\nwant (recorded before the storage change)\n%s", got, want)
	}
}

// The same check at volume: a seeded random flow over a small id pool, so ids
// are reused after deletes and full fills and most adds cross. (An add whose
// id is live on another symbol is skipped: the books now refuse it, ids being
// per exchange, where the per-book maps accepted it.)
func TestStrategyRandomFlowMatchesGolden(t *testing.T) {
	r := newStratRig(t)
	rng := rand.New(rand.NewSource(15))
	tickers := []string{"AAPL", "MSFT", "ZTS"}
	liveOn := func(id uint64) string {
		for _, tk := range tickers {
			sym, _ := r.u.Lookup(tk)
			if _, live := r.strat.Book(sym).Lookup(market.OrderID(id)); live {
				return tk
			}
		}
		return ""
	}
	for i := 0; i < 4000; i++ {
		id := uint64(1 + rng.Intn(150))
		tk := tickers[rng.Intn(len(tickers))]
		m := feed.Msg{OrderID: id, Qty: uint32(1 + rng.Intn(60)), Price: uint64(1000 + rng.Intn(16))}
		switch op := rng.Intn(10); {
		case op < 5:
			m.Type, m.Side = feed.MsgAddOrder, market.Side(rng.Intn(2))
			if on := liveOn(id); on != "" && on != tk {
				continue
			}
		case op < 6:
			m.Type = feed.MsgDeleteOrder
		case op < 7:
			m.Type = feed.MsgReduceSize
		case op < 8:
			m.Type = feed.MsgOrderExecuted
		default:
			m.Type = feed.MsgModifyOrder
		}
		r.inject(tk, m)
		r.checkIndex(t)
	}
	r.sched.Run()
	h := fnv.New64a()
	h.Write([]byte(r.render()))
	got := fmt.Sprintf("books=%016x msgs_in=%d orders_sent=%d", h.Sum64(), r.strat.MsgsIn, r.strat.OrdersSent)
	const want = "books=e60e9ed11c159e44 msgs_in=3636 orders_sent=462"
	if got != want {
		t.Fatalf("final state %s, want %s (recorded before the storage change)\n%s", got, want, r.render())
	}
}
