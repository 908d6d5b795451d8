package firm

import (
	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// QuoterConfig parameterizes a market-making strategy.
type QuoterConfig struct {
	// Symbol is the single instrument this quoter makes markets in.
	Symbol market.SymbolID
	// HalfSpread is the distance from the reference price to each quote.
	HalfSpread market.Price
	// Size is the quoted size per side.
	Size market.Qty
	// DecisionLatency is the software cost from input event to the
	// repricing messages leaving.
	DecisionLatency sim.Duration
	// Subscriptions selects internal partitions (empty = all).
	Subscriptions []int
}

// Quoter is the repricing workload §2 singles out: "repricing orders as
// quickly as possible is also critical because exchanges will continue
// matching with an old order's price until it is updated, making trades
// that are no longer desired." It keeps a two-sided quote centered on the
// observed book and *modifies* its resting orders whenever the reference
// moves — so unlike the fire-once Strategy, it drives a continuous stream
// of modify traffic through gateways and the exchange.
type Quoter struct {
	cfg   QuoterConfig
	sched *sim.Scheduler
	u     *market.Universe
	host  *netsim.Host
	mdNIC *netsim.NIC
	oeNIC *netsim.NIC

	book    *market.Book
	reasm   unitTable
	session *orderentry.ClientSession

	bidID, askID   uint64
	quotedMid      market.Price
	quoting        bool
	pendingReprice bool
	// ownExchIDs are the venue's ids for our resting orders (from acks):
	// the drop-copy linkage that keeps the reference book free of our own
	// quotes, so the quoter never chases itself.
	ownExchIDs map[uint64]bool

	// Stats.
	MsgsIn    uint64
	Reprices  uint64
	Fills     uint64
	StaleHits uint64 // fills received at a price we had already moved away from
}

// NewQuoter builds a market-maker host subscribed to the normalized feed.
func NewQuoter(sched *sim.Scheduler, u *market.Universe, name string, hostID uint32,
	outMap *mcast.Map, cfg QuoterConfig) *Quoter {
	if cfg.HalfSpread <= 0 || cfg.Size <= 0 || cfg.Symbol == 0 {
		panic("firm: quoter needs symbol, positive spread and size")
	}
	q := &Quoter{
		cfg:        cfg,
		sched:      sched,
		u:          u,
		book:       market.NewBook(cfg.Symbol),
		ownExchIDs: make(map[uint64]bool),
	}
	q.host = netsim.NewHost(sched, name)
	q.mdNIC = q.host.AddNIC("md", hostID)
	q.oeNIC = q.host.AddNIC("oe", hostID+1)
	parts := cfg.Subscriptions
	if len(parts) == 0 {
		for i := 0; i < outMap.Partitioner().Partitions(); i++ {
			parts = append(parts, i)
		}
	}
	for _, i := range parts {
		q.mdNIC.Join(outMap.GroupByIndex(i))
		q.reasm.set(uint8(i), feed.NewReassembler(uint8(i)))
	}
	q.mdNIC.OnFrame = q.onFrame
	return q
}

// MDNIC returns the market-data NIC.
func (q *Quoter) MDNIC() *netsim.NIC { return q.mdNIC }

// OENIC returns the order-entry NIC.
func (q *Quoter) OENIC() *netsim.NIC { return q.oeNIC }

// Session returns the order session (nil before ConnectGateway).
func (q *Quoter) Session() *orderentry.ClientSession { return q.session }

// ConnectGateway opens the quoter's order path (same shape as Strategy's).
func (q *Quoter) ConnectGateway(localPort uint16, gwAddr pkt.UDPAddr) {
	mux := netsim.NewStreamMux(q.oeNIC)
	stream := netsim.NewStream(q.oeNIC, localPort, gwAddr)
	mux.Register(stream)
	q.session = orderentry.NewClientSession(func(b []byte) { stream.Write(b) })
	stream.OnData = func(b []byte) { q.session.Receive(b) }
	q.session.OnExchangeID = func(_, exchID uint64) {
		q.ownExchIDs[exchID] = true
		// The feed's add may have raced ahead of the ack: evict it from the
		// reference book.
		q.book.Cancel(market.OrderID(exchID))
	}
	q.session.OnFill = func(id uint64, qty market.Qty, price market.Price, done bool) {
		q.Fills++
		// A fill at a price off our current quote means the old order
		// traded before the reprice landed — §2's stale-order cost.
		want := q.quotedMid - q.cfg.HalfSpread
		if id == q.askID {
			want = q.quotedMid + q.cfg.HalfSpread
		}
		if price != want {
			q.StaleHits++
		}
		if done {
			// Re-establish the missing side at the next reprice.
			q.quoting = false
		}
	}
	q.session.Logon()
}

func (q *Quoter) onFrame(_ *netsim.NIC, f *netsim.Frame) {
	// Fully consumed synchronously; the frame terminates here.
	defer f.Release()
	var uf pkt.UDPFrame
	if err := pkt.ParseUDPFrame(f.Data, &uf); err != nil {
		return
	}
	var h feed.UnitHeader
	if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err != nil {
		return
	}
	r := q.reasm.get(h.Unit)
	if r == nil {
		return
	}
	r.Consume(uf.Payload, func(m *feed.Msg) {
		q.MsgsIn++
		q.apply(m)
	})
}

// apply updates the book view and schedules a reprice when the mid moved.
func (q *Quoter) apply(m *feed.Msg) {
	if q.ownExchIDs[m.OrderID] {
		// Our own order echoing back on the feed: not part of the
		// reference price.
		return
	}
	switch m.Type {
	case feed.MsgAddOrder:
		if id, ok := q.u.LookupWire(m.Symbol); ok && id == q.cfg.Symbol {
			q.book.Add(market.Order{
				ID: market.OrderID(m.OrderID), Symbol: id, Side: m.Side,
				Price: market.Price(m.Price), Qty: market.Qty(m.Qty),
			})
		}
	case feed.MsgDeleteOrder:
		q.book.Cancel(market.OrderID(m.OrderID))
	case feed.MsgOrderExecuted, feed.MsgReduceSize:
		if o, ok := q.book.Lookup(market.OrderID(m.OrderID)); ok {
			rem := o.Qty - market.Qty(m.Qty)
			if rem < 0 {
				rem = 0
			}
			q.book.Modify(market.OrderID(m.OrderID), o.Price, rem)
		}
	case feed.MsgModifyOrder:
		if _, ok := q.book.Lookup(market.OrderID(m.OrderID)); ok {
			q.book.Modify(market.OrderID(m.OrderID), market.Price(m.Price), market.Qty(m.Qty))
		}
	}
	q.maybeReprice()
}

// mid returns the reference price: the book midpoint, or zero if one-sided.
func (q *Quoter) mid() market.Price {
	bbo := q.book.BBO()
	if bbo.Bid.Size == 0 || bbo.Ask.Size == 0 {
		return 0
	}
	return (bbo.Bid.Price + bbo.Ask.Price) / 2
}

func (q *Quoter) maybeReprice() {
	if q.session == nil || !q.session.LoggedOn() || q.pendingReprice {
		return
	}
	mid := q.mid()
	if mid == 0 || (q.quoting && mid == q.quotedMid) {
		return
	}
	q.pendingReprice = true
	q.sched.AfterArgs(q.cfg.DecisionLatency, sim.PrioDeliver, fireRepriceArgs, q, nil)
}

// fireRepriceArgs adapts the delayed reprice to the Scheduler's closure-free
// two-argument callback shape.
func fireRepriceArgs(a, _ any) {
	q := a.(*Quoter)
	q.pendingReprice = false
	q.reprice()
}

// reprice establishes or moves the two-sided quote to the current mid.
func (q *Quoter) reprice() {
	mid := q.mid()
	if mid == 0 || (q.quoting && mid == q.quotedMid) {
		return
	}
	bid := mid - q.cfg.HalfSpread
	ask := mid + q.cfg.HalfSpread
	q.Reprices++
	if !q.quoting {
		// Clear any surviving half of the previous quote before
		// re-establishing both sides (the other half died in a fill).
		if q.bidID != 0 {
			q.session.Cancel(q.bidID)
			q.session.Cancel(q.askID)
		}
		q.bidID = q.Reprices*2 + 1_000_000
		q.askID = q.Reprices*2 + 1_000_001
		q.session.NewOrder(q.bidID, q.cfg.Symbol, market.Buy, bid, q.cfg.Size)
		q.session.NewOrder(q.askID, q.cfg.Symbol, market.Sell, ask, q.cfg.Size)
		q.quoting = true
	} else {
		q.session.Modify(q.bidID, bid, q.cfg.Size)
		q.session.Modify(q.askID, ask, q.cfg.Size)
	}
	q.quotedMid = mid
}
