package firm

import (
	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// StrategyConfig parameterizes a strategy server.
type StrategyConfig struct {
	// DecisionLatency is the software cost from normalized message arrival
	// to order transmission when the strategy decides to act.
	DecisionLatency sim.Duration
	// Subscriptions selects which internal partitions this strategy
	// consumes ("some strategies only analyze a subset of the feed", §1).
	// Empty means all partitions.
	Subscriptions []int
	// Trigger decides whether a message prompts an order. If nil, the
	// strategy fires on every event that improves the best bid (a simple
	// join-the-bid strategy), pricing at the new best bid.
	Trigger func(m *feed.Msg, book *market.Book) (market.Price, market.Qty, market.Side, bool)
	// Gate, if set, screens (and may reprice) every outgoing order — the
	// §4.2 compliance hook, typically firm.Surveillance.Reprice bound to
	// the destination exchange. Returning ok=false suppresses the order.
	Gate func(sym market.SymbolID, side market.Side, price market.Price) (market.Price, bool)
	// PullOnGap cancels every working order when a sequence gap appears on
	// the normalized feed: a gap means missed liquidity events, so resting
	// quotes are priced against a book the strategy can no longer trust —
	// the stale-quote risk §2's loss discussion is really about.
	PullOnGap bool
}

// Strategy consumes the normalized feed, maintains books, and submits
// orders through a gateway session.
type Strategy struct {
	cfg   StrategyConfig
	sched *sim.Scheduler
	u     *market.Universe
	host  *netsim.Host
	mdNIC *netsim.NIC
	oeNIC *netsim.NIC

	// orders stores every book's resting orders (exchange order ids are
	// unique across symbols) and resolves delete/modify/execute messages —
	// which carry no symbol — to their book.
	orders *market.Orders
	books  []*market.Book // indexed by SymbolID; nil until first use
	reasm  unitTable

	session *orderentry.ClientSession
	stream  *netsim.Stream
	oeMux   *netsim.StreamMux
	oePort  uint16
	nextOID uint64

	// res, when set, hardens the order path (resilience.go); halted gates
	// decision firing while the path is untrusted.
	res    *StrategyResilience
	halted bool
	// liveOrders tracks submitted order ids in submission order (only when
	// PullOnGap is set), so a pull cancels deterministically — never by
	// iterating the session's map.
	liveOrders []uint64

	// decFree pools pendingDecision values so the decision path schedules
	// allocation-free via AtArgs.
	decFree []*pendingDecision

	// rxTrace is the flight-recorder context stolen from the frame being
	// consumed; the first decision it triggers adopts it and carries it to
	// the outgoing order.
	rxTrace *trace.Ctx

	// mdOrigins tracks the network origin time of the message that
	// triggered each decision, for end-to-end (tick-to-trade) latency.
	LastTriggerOrigin sim.Time

	// Stats.
	MsgsIn       uint64
	OrdersSent   uint64
	Fills        uint64
	Gated        uint64 // orders suppressed by the compliance gate
	Repriced     uint64 // orders the gate moved to a compliant price
	GapsSeen     uint64 // sequence gaps detected on the normalized feed
	QuotePulls   uint64 // gap-triggered pull events (PullOnGap)
	PulledOrders uint64 // cancels sent by those pulls
	// Resilience stats (resilience.go).
	Halts         uint64 // times quoting was halted on a degraded order path
	Resumes       uint64 // times quoting resumed
	HaltedOrders  uint64 // decisions suppressed while halted
	UnknownOrders uint64 // orders escalated as unknown
	Reconnects    uint64 // order-session redials completed
}

// NewStrategy builds a strategy host subscribed to the chosen partitions of
// the normalized feed.
func NewStrategy(sched *sim.Scheduler, u *market.Universe, name string, hostID uint32,
	outMap *mcast.Map, cfg StrategyConfig) *Strategy {
	s := &Strategy{
		cfg:    cfg,
		sched:  sched,
		u:      u,
		orders: market.NewOrders(),
		books:  make([]*market.Book, u.Len()+1),
	}
	s.host = netsim.NewHost(sched, name)
	s.mdNIC = s.host.AddNIC("md", hostID)
	s.oeNIC = s.host.AddNIC("oe", hostID+1)

	parts := cfg.Subscriptions
	if len(parts) == 0 {
		for i := 0; i < outMap.Partitioner().Partitions(); i++ {
			parts = append(parts, i)
		}
	}
	for _, i := range parts {
		s.mdNIC.Join(outMap.GroupByIndex(i))
		r := feed.NewReassembler(uint8(i))
		r.OnGap = func(feed.GapInfo) { s.noteGap() }
		s.reasm.set(uint8(i), r)
	}
	s.mdNIC.OnFrame = s.onFrame
	return s
}

// MDNIC returns the market-data NIC.
func (s *Strategy) MDNIC() *netsim.NIC { return s.mdNIC }

// OENIC returns the order-entry NIC.
func (s *Strategy) OENIC() *netsim.NIC { return s.oeNIC }

// Session returns the gateway-facing order session (nil before
// ConnectGateway).
func (s *Strategy) Session() *orderentry.ClientSession { return s.session }

// ConnectGateway opens the strategy's order path to a gateway: an internal
// order-entry session over a reliable stream. The gateway must already have
// accepted at gwAddr.
func (s *Strategy) ConnectGateway(localPort uint16, gwAddr pkt.UDPAddr) {
	s.oeMux = netsim.NewStreamMux(s.oeNIC)
	s.oePort = localPort
	s.stream = netsim.NewStream(s.oeNIC, localPort, gwAddr)
	s.oeMux.Register(s.stream)
	s.session = orderentry.NewClientSession(func(b []byte) { s.stream.Write(b) })
	s.stream.OnData = func(b []byte) { s.session.Receive(b) }
	s.session.OnFill = func(uint64, market.Qty, market.Price, bool) { s.Fills++ }
	s.session.Logon()
}

// Book returns (creating if needed) the strategy's view of a symbol's book.
func (s *Strategy) Book(id market.SymbolID) *market.Book {
	for int(id) >= len(s.books) {
		s.books = append(s.books, nil)
	}
	b := s.books[id]
	if b == nil {
		b = s.orders.NewBook(id)
		s.books[id] = b
	}
	return b
}

// noteGap records a sequence gap on the normalized feed and, when PullOnGap
// is configured, pulls all working quotes.
func (s *Strategy) noteGap() {
	s.GapsSeen++
	if s.cfg.PullOnGap {
		s.pullQuotes()
	}
}

// pullQuotes cancels every working order, in submission order. Orders
// already gone (filled, rejected) or with a cancel in flight are skipped.
func (s *Strategy) pullQuotes() {
	if s.session == nil || !s.session.LoggedOn() {
		return
	}
	s.QuotePulls++
	for _, id := range s.liveOrders {
		st, ok := s.session.Order(id)
		if !ok || st.CancelReq {
			continue
		}
		s.session.Cancel(id)
		s.PulledOrders++
	}
	s.liveOrders = s.liveOrders[:0]
}

func (s *Strategy) onFrame(_ *netsim.NIC, f *netsim.Frame) {
	// The frame is fully consumed synchronously (the reassembler decodes
	// into Msg values and apply copies what it keeps), so it terminates here.
	defer f.Release()
	var uf pkt.UDPFrame
	if err := pkt.ParseUDPFrame(f.Data, &uf); err != nil {
		return
	}
	var h feed.UnitHeader
	if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err != nil {
		return
	}
	r := s.reasm.get(h.Unit)
	if r == nil {
		return
	}
	// Steal the trace: the first decision this frame triggers adopts it; if
	// nothing fires, it ends here — the strategy consumed the tick.
	if f.Trace != nil {
		s.rxTrace, f.Trace = f.Trace, nil
	}
	r.Consume(uf.Payload, func(m *feed.Msg) {
		s.MsgsIn++
		s.apply(m, f.Origin)
	})
	if t := s.rxTrace; t != nil {
		t.Record(s.host.Name, trace.CauseSoftware, s.sched.Now())
		t.Finish(trace.EndConsumed)
		s.rxTrace = nil
	}
}

// apply updates book state and runs the trigger.
func (s *Strategy) apply(m *feed.Msg, origin sim.Time) {
	var book *market.Book
	var preBBO market.BBO
	oid := market.OrderID(m.OrderID)
	switch m.Type {
	case feed.MsgAddOrder:
		if id, ok := s.u.LookupWire(m.Symbol); ok {
			book = s.Book(id)
			preBBO = book.BBO()
			book.Add(market.Order{
				ID:     oid,
				Symbol: id,
				Side:   m.Side,
				Price:  market.Price(m.Price),
				Qty:    market.Qty(m.Qty),
			})
		}
	case feed.MsgDeleteOrder:
		if book = s.orders.BookOf(oid); book != nil {
			book.Cancel(oid)
		}
	case feed.MsgReduceSize, feed.MsgOrderExecuted:
		if book = s.orders.BookOf(oid); book != nil {
			o, _ := book.Lookup(oid)
			book.Modify(oid, o.Price, max(o.Qty-market.Qty(m.Qty), 0))
		}
	case feed.MsgModifyOrder:
		if book = s.orders.BookOf(oid); book != nil {
			book.Modify(oid, market.Price(m.Price), market.Qty(m.Qty))
		}
	}
	if book == nil || s.session == nil || !s.session.LoggedOn() {
		return
	}
	price, qty, side, fire := s.trigger(m, book, preBBO)
	if !fire {
		return
	}
	s.LastTriggerOrigin = origin
	d := s.getDecision()
	d.book, d.price, d.qty, d.side = book, price, qty, side
	if s.rxTrace != nil {
		d.tr, s.rxTrace = s.rxTrace, nil
	}
	s.sched.AfterArgs(s.cfg.DecisionLatency, sim.PrioDeliver, fireDecisionArgs, s, d)
}

// pendingDecision carries one trigger's order parameters from trigger time
// to fire time (one DecisionLatency later) without allocating a closure.
type pendingDecision struct {
	book  *market.Book
	price market.Price
	qty   market.Qty
	side  market.Side
	tr    *trace.Ctx
}

func (s *Strategy) getDecision() *pendingDecision {
	if n := len(s.decFree); n > 0 {
		d := s.decFree[n-1]
		s.decFree = s.decFree[:n-1]
		return d
	}
	return &pendingDecision{}
}

// fireDecisionArgs adapts fireDecision to the Scheduler's closure-free
// two-argument callback shape.
func fireDecisionArgs(a, b any) { a.(*Strategy).fireDecision(b.(*pendingDecision)) }

// fireDecision sends (or gates) the order decided one DecisionLatency ago.
func (s *Strategy) fireDecision(d *pendingDecision) {
	book, price, qty, side, tr := d.book, d.price, d.qty, d.side, d.tr
	*d = pendingDecision{}
	s.decFree = append(s.decFree, d)
	if s.halted {
		// The order path is untrusted (session down, orders unknown, or the
		// venue shedding): quoting into it would strand more orders.
		s.HaltedOrders++
		tr.Finish(trace.EndConsumed)
		return
	}
	if tr != nil {
		// Receive path + trigger + decision latency: one software span.
		tr.Record(s.host.Name, trace.CauseSoftware, s.sched.Now())
	}

	sym := book.Symbol()
	sendPrice := price
	if s.cfg.Gate != nil {
		p, ok := s.cfg.Gate(sym, side, price)
		if !ok {
			s.Gated++
			tr.Finish(trace.EndConsumed)
			return
		}
		if p != price {
			s.Repriced++
		}
		sendPrice = p
	}
	s.nextOID++
	if tr != nil {
		s.stream.AttachTxTrace(tr)
	}
	s.session.NewOrder(s.nextOID, sym, side, sendPrice, qty)
	if s.cfg.PullOnGap {
		s.liveOrders = append(s.liveOrders, s.nextOID)
	}
	s.OrdersSent++
}

func (s *Strategy) trigger(m *feed.Msg, book *market.Book, preBBO market.BBO) (market.Price, market.Qty, market.Side, bool) {
	if s.cfg.Trigger != nil {
		return s.cfg.Trigger(m, book)
	}
	// Default join-the-bid: act only when a new bid strictly improves the
	// pre-event best bid. The strict comparison keeps the strategy from
	// chasing the reflection of its own order on the feed.
	if m.Type != feed.MsgAddOrder || m.Side != market.Buy {
		return 0, 0, 0, false
	}
	if preBBO.Bid.Size > 0 && market.Price(m.Price) <= preBBO.Bid.Price {
		return 0, 0, 0, false
	}
	bbo := book.BBO()
	if bbo.Bid.Size > 0 {
		return bbo.Bid.Price, 100, market.Buy, true
	}
	return 0, 0, 0, false
}
