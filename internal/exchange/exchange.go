// Package exchange implements the venue side of the trading plant: per-
// symbol matching engines, a sequenced multicast market-data publisher in
// the exchange's own binary format, and order-entry ports speaking the
// BOE-style protocol over the simulated network (§2).
package exchange

import (
	"fmt"
	"math/rand"

	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/replication"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// MDPort is the UDP destination port market data is published to.
const MDPort = 30001

// OEBasePort is the first TCP port used for order-entry sessions.
const OEBasePort = 17000

// Config parameterizes an exchange.
type Config struct {
	ID      market.ExchangeID
	Name    string
	Variant *feed.Variant
	// MatchLatency is the engine's order-in to response-out processing
	// time.
	MatchLatency sim.Duration
	// HostID seeds the exchange's NIC addressing.
	HostID uint32
}

// Exchange is one venue.
type Exchange struct {
	cfg   Config
	sched *sim.Scheduler
	u     *market.Universe

	host  *netsim.Host
	mdNIC *netsim.NIC
	oeNIC *netsim.NIC
	mux   *netsim.StreamMux

	books   []*market.Book // indexed by SymbolID; nil until first use
	partMap *mcast.Map
	packers []*feed.Packer
	retain  []*feed.RetainBuffer
	recSrv  *feed.RecoveryServer

	nextExchangeOrderID market.OrderID
	nextExecID          uint64
	nextOEPort          uint16
	// order ownership: exchange order id → originating session + client id.
	owners map[market.OrderID]ownerRef
	// byOwner is the reverse index: (session, client id) → live exchange
	// order id, so cancels and modifies resolve in O(1) instead of scanning
	// owners in randomized map order.
	byOwner map[ownerKey]market.OrderID
	// msgFree pools order-message copies so the match-latency delay path
	// schedules allocation-free via AfterArgs3.
	msgFree []*orderentry.Msg

	// res, when set, hardens accepted sessions (resilience.go); links maps
	// each session to its current transport so reconnects can swap streams.
	res *Resilience
	//simlint:allow ptrorder: lookup-only session→link table — never iterated, sorted, or rendered, so the pointer key cannot order any output
	links map[*orderentry.ExchangeSession]*oeLink

	// High-availability state (ha.go). sessList indexes sessions in accept
	// order — the session numbering both sides of a replication pair share;
	// sessIdx is its reverse. jrn, when set, makes this exchange the primary
	// of a hot-standby pair, streaming every state change to the backup.
	// dark marks a standby shadow (state advances by journal application,
	// nothing transmits); crashed freezes the process after a
	// fault.ProcessFail. All hot paths gate on one nil/bool compare.
	sessList   []*orderentry.ExchangeSession
	sessIdx    map[*orderentry.ExchangeSession]int
	jrn        *replication.Journal
	dark       bool
	crashed    bool
	recStreams []*netsim.Stream
	// lastPublishAt stamps the most recent feed datagram's virtual time
	// (maintained only while journaling — the blackout-window measurement).
	lastPublishAt sim.Time

	// Executions counts fills reported by the matching engine; the failover
	// experiments compare promoted-backup and control counts to prove no
	// execution was lost or duplicated.
	Executions uint64

	// CancelOnDisconnect counts orders mass-canceled for dead sessions;
	// SessionsDropped counts peer-death declarations acted on.
	CancelOnDisconnect uint64
	SessionsDropped    uint64

	// Published counts market-data datagrams sent; PublishedMsgs counts the
	// messages inside them (failover completeness checks compare receiver
	// message counts against it).
	Published     uint64
	PublishedMsgs uint64

	// OnOrderAccepted, if set, fires when the matching engine admits a new
	// order (after MatchLatency) — the measurement point for round-trip
	// latency experiments.
	OnOrderAccepted func(m *orderentry.Msg, at sim.Time)

	// tracer, if set, starts a flight-recorder trace on every published
	// market-data datagram (subject to the recorder's sampling stride) and
	// finishes traces arriving on accepted orders. Nil means fully untraced:
	// every hook degenerates to a nil compare.
	tracer *trace.Recorder

	// onPublishDgram, if set, observes every published (and retained)
	// feed datagram — the tap a WAN redundancy sender mirrors the feed
	// from. Nil (the default) costs the publish path one nil compare.
	onPublishDgram func(dgram []byte)

	ipID uint16
}

type ownerRef struct {
	sess     *orderentry.ExchangeSession
	clientID uint64
	sym      market.SymbolID
}

// ownerKey identifies an order from the client's side of the session.
type ownerKey struct {
	sess     *orderentry.ExchangeSession
	clientID uint64
}

// New creates an exchange over universe u, publishing feed partitions per
// pmap. Its host exposes two NICs: market data (multicast out) and order
// entry.
func New(sched *sim.Scheduler, u *market.Universe, pmap *mcast.Map, cfg Config) *Exchange {
	e := &Exchange{
		cfg:        cfg,
		sched:      sched,
		u:          u,
		books:      make([]*market.Book, u.Len()+1),
		partMap:    pmap,
		owners:     make(map[market.OrderID]ownerRef),
		byOwner:    make(map[ownerKey]market.OrderID),
		links:      make(map[*orderentry.ExchangeSession]*oeLink),
		sessIdx:    make(map[*orderentry.ExchangeSession]int),
		nextOEPort: OEBasePort,
	}
	e.host = netsim.NewHost(sched, cfg.Name)
	e.mdNIC = e.host.AddNIC("md", cfg.HostID)
	e.oeNIC = e.host.AddNIC("oe", cfg.HostID+1)
	e.mux = netsim.NewStreamMux(e.oeNIC)
	for i := 0; i < pmap.Partitioner().Partitions(); i++ {
		e.packers = append(e.packers, feed.NewPacker(cfg.Variant, uint8(i)))
		e.retain = append(e.retain, feed.NewRetainBuffer(uint8(i), RetainDgrams))
	}
	e.recSrv = feed.NewRecoveryServer(e.retain...)
	return e
}

// RetainDgrams is the per-partition replay window served to gap-recovery
// clients.
const RetainDgrams = 4096

// EnableTracing installs a flight recorder: published datagrams start
// traces, accepted orders finish them. Pass nil to disable.
func (e *Exchange) EnableTracing(r *trace.Recorder) { e.tracer = r }

// Tracer returns the installed flight recorder (nil when tracing is off).
func (e *Exchange) Tracer() *trace.Recorder { return e.tracer }

// RecoveryServer exposes the exchange's gap-recovery service; callers wire
// its Receive to an order-entry-style stream (real feeds run it on a
// dedicated TCP endpoint).
func (e *Exchange) RecoveryServer() *feed.RecoveryServer { return e.recSrv }

// NewRecoveryServer returns a fresh gap-recovery server over the same
// retained datagrams. A RecoveryServer carries per-stream request framing
// state, so every independent client stream (a WAN subscriber's side
// channel, say) needs its own server instance rather than sharing recSrv
// and interleaving partial requests.
func (e *Exchange) NewRecoveryServer() *feed.RecoveryServer {
	return feed.NewRecoveryServer(e.retain...)
}

// SetOnPublishDgram installs a tap observing every published feed
// datagram, after retention (so a replay can recover anything the tap's
// downstream loses). The slice is valid only for the duration of the
// call. Pass nil to remove.
func (e *Exchange) SetOnPublishDgram(fn func(dgram []byte)) { e.onPublishDgram = fn }

// AcceptRecoverySession provisions a gap-recovery stream endpoint on the
// order-entry NIC and returns the TCP port clients should dial.
func (e *Exchange) AcceptRecoverySession(clientAddr pkt.UDPAddr) uint16 {
	port := e.nextOEPort
	e.nextOEPort++
	stream := netsim.NewStream(e.oeNIC, port, clientAddr)
	stream.OnData = func(b []byte) {
		e.recSrv.Receive(b, func(resp []byte) { stream.Write(resp) })
	}
	e.mux.Register(stream)
	e.recStreams = append(e.recStreams, stream)
	return port
}

// ID returns the exchange's id.
func (e *Exchange) ID() market.ExchangeID { return e.cfg.ID }

// Name returns the exchange's name.
func (e *Exchange) Name() string { return e.cfg.Name }

// MDNIC returns the market-data NIC (to connect into the fabric).
func (e *Exchange) MDNIC() *netsim.NIC { return e.mdNIC }

// OENIC returns the order-entry NIC.
func (e *Exchange) OENIC() *netsim.NIC { return e.oeNIC }

// PartitionMap returns the feed partition→group mapping.
func (e *Exchange) PartitionMap() *mcast.Map { return e.partMap }

// Book returns (creating if needed) the book for a symbol.
func (e *Exchange) Book(id market.SymbolID) *market.Book {
	for int(id) >= len(e.books) {
		e.books = append(e.books, nil)
	}
	b := e.books[id]
	if b == nil {
		b = market.NewBook(id)
		e.books[id] = b
	}
	return b
}

// BBO returns the exchange's current best bid/offer for a symbol.
func (e *Exchange) BBO(id market.SymbolID) market.BBO { return e.Book(id).BBO() }

// AcceptSession provisions an exchange-side order-entry session reachable at
// the returned TCP port. The matching engine responds after MatchLatency.
func (e *Exchange) AcceptSession(clientAddr pkt.UDPAddr) (*orderentry.ExchangeSession, uint16) {
	port := e.nextOEPort
	e.nextOEPort++
	stream := netsim.NewStream(e.oeNIC, port, clientAddr)
	sess := orderentry.NewExchangeSession(func(b []byte) { stream.Write(b) })
	stream.OnData = func(b []byte) {
		if err := sess.Receive(b); err != nil {
			panic(fmt.Sprintf("%s: order session: %v", e.cfg.Name, err))
		}
	}
	e.mux.Register(stream)
	// The link indirection lets a reconnect swap the transport under the
	// session while these closures keep working.
	link := &oeLink{stream: stream}
	e.links[sess] = link
	e.wireEngine(sess, link)
	e.indexSession(sess)
	if e.res != nil {
		e.applyResilience(sess, stream)
	}
	return sess, port
}

// wireEngine installs the engine entry points on a session. Each handler
// adopts the trace parked on the stream by the mux (nil when untraced) so
// the match-latency wait is attributed to exchange software; a shadow
// session has no transport until promotion, hence the nil-stream guard.
func (e *Exchange) wireEngine(sess *orderentry.ExchangeSession, link *oeLink) {
	sess.Validate = e.validate
	sess.OnNew = func(m *orderentry.Msg) {
		c := e.copyMsg(m)
		if link.stream != nil {
			if t := link.stream.TakeRxTrace(); t != nil {
				c.Trace = t
			}
		}
		e.sched.AfterArgs3(e.cfg.MatchLatency, sim.PrioDeliver, execNewArgs, e, sess, c)
	}
	sess.OnCancel = func(m *orderentry.Msg) {
		c := e.copyMsg(m)
		if link.stream != nil {
			if t := link.stream.TakeRxTrace(); t != nil {
				c.Trace = t
			}
		}
		e.sched.AfterArgs3(e.cfg.MatchLatency, sim.PrioDeliver, execCancelArgs, e, sess, c)
	}
	sess.OnModify = func(m *orderentry.Msg) {
		c := e.copyMsg(m)
		if link.stream != nil {
			if t := link.stream.TakeRxTrace(); t != nil {
				c.Trace = t
			}
		}
		e.sched.AfterArgs3(e.cfg.MatchLatency, sim.PrioDeliver, execModifyArgs, e, sess, c)
	}
}

// indexSession assigns the session the next slot in accept order and, when
// journaling, announces it so the standby opens the matching shadow slot.
func (e *Exchange) indexSession(sess *orderentry.ExchangeSession) {
	idx := len(e.sessList)
	e.sessIdx[sess] = idx
	e.sessList = append(e.sessList, sess)
	if e.jrn != nil {
		e.jrn.SessionOpen(idx)
		sess.OnTx = func(seq uint32, frame []byte) { e.jrn.SessionTx(idx, seq, frame) }
	}
}

// copyMsg snapshots an inbound order message (the session reuses its decode
// buffer) into a pooled copy that survives the MatchLatency delay.
func (e *Exchange) copyMsg(m *orderentry.Msg) *orderentry.Msg {
	var c *orderentry.Msg
	if n := len(e.msgFree); n > 0 {
		c = e.msgFree[n-1]
		e.msgFree = e.msgFree[:n-1]
	} else {
		c = new(orderentry.Msg)
	}
	*c = *m
	return c
}

// execNewArgs, execCancelArgs, and execModifyArgs adapt the engine entry
// points to the Scheduler's closure-free three-argument callback shape and
// return the message copy to the pool once the engine is done with it.
func execNewArgs(a, b, c any) {
	e, m := a.(*Exchange), c.(*orderentry.Msg)
	e.execNew(b.(*orderentry.ExchangeSession), m)
	e.msgFree = append(e.msgFree, m)
}

func execCancelArgs(a, b, c any) {
	e, m := a.(*Exchange), c.(*orderentry.Msg)
	e.execCancel(b.(*orderentry.ExchangeSession), m)
	e.msgFree = append(e.msgFree, m)
}

func execModifyArgs(a, b, c any) {
	e, m := a.(*Exchange), c.(*orderentry.Msg)
	e.execModify(b.(*orderentry.ExchangeSession), m)
	e.msgFree = append(e.msgFree, m)
}

func (e *Exchange) validate(m *orderentry.Msg) orderentry.RejectReason {
	if m.Symbol == 0 || int(m.Symbol) > e.u.Len() {
		return orderentry.RejectUnknownSymbol
	}
	if m.Qty <= 0 {
		return orderentry.RejectBadQty
	}
	if m.Price <= 0 {
		return orderentry.RejectBadPrice
	}
	return orderentry.RejectNone
}

func (e *Exchange) execNew(sess *orderentry.ExchangeSession, m *orderentry.Msg) {
	if e.crashed {
		e.dropCrashed(m)
		return
	}
	if e.jrn != nil {
		e.jrn.Op(e.sessIdx[sess], replication.OpNew, m.OrderID, m.Symbol, m.Side, m.Price, m.Qty)
	}
	if t := m.Trace; t != nil {
		t.Record(e.cfg.Name, trace.CauseSoftware, e.sched.Now())
		t.Finish(trace.EndAccepted)
		m.Trace = nil
	}
	if e.OnOrderAccepted != nil {
		e.OnOrderAccepted(m, e.sched.Now())
	}
	e.nextExchangeOrderID++
	exID := e.nextExchangeOrderID
	e.owners[exID] = ownerRef{sess: sess, clientID: m.OrderID, sym: m.Symbol}
	e.byOwner[ownerKey{sess: sess, clientID: m.OrderID}] = exID
	sess.Ack(m.OrderID, uint64(exID))

	book := e.Book(m.Symbol)
	fills := book.Add(market.Order{ID: exID, Symbol: m.Symbol, Side: m.Side, Price: m.Price, Qty: m.Qty})
	e.publishAdd(m, exID, fills)
	e.reportFills(m.Symbol, fills)
}

func (e *Exchange) execCancel(sess *orderentry.ExchangeSession, m *orderentry.Msg) {
	if e.crashed {
		e.dropCrashed(m)
		return
	}
	if e.jrn != nil {
		e.jrn.Op(e.sessIdx[sess], replication.OpCancel, m.OrderID, m.Symbol, m.Side, m.Price, m.Qty)
	}
	if t := m.Trace; t != nil {
		t.Record(e.cfg.Name, trace.CauseSoftware, e.sched.Now())
		t.Finish(trace.EndConsumed)
		m.Trace = nil
	}
	// Find the exchange order belonging to this client id and session.
	exID, ok := e.findOrder(sess, m.OrderID)
	if !ok {
		// The §2 race: the order already filled (or never existed).
		sess.CancelReject(m.OrderID)
		return
	}
	sym := e.orderSymbol(exID)
	if !e.Book(sym).Cancel(exID) {
		sess.CancelReject(m.OrderID)
		return
	}
	sess.CancelAck(m.OrderID)
	e.publish(sym, &feed.Msg{
		Type: feed.MsgDeleteOrder, TimeNs: e.timeNs(), OrderID: uint64(exID),
	})
	e.dropOwner(exID)
}

// dropCrashed finishes the trace of an engine event that fired after the
// process died — the in-flight order a failover must not lose silently.
func (e *Exchange) dropCrashed(m *orderentry.Msg) {
	if t := m.Trace; t != nil {
		t.Record(e.cfg.Name, trace.CauseSoftware, e.sched.Now())
		t.Finish(trace.EndCrashed)
		m.Trace = nil
	}
}

// dropOwner removes a dead order from both ownership indexes.
func (e *Exchange) dropOwner(exID market.OrderID) {
	if ref, ok := e.owners[exID]; ok {
		delete(e.byOwner, ownerKey{sess: ref.sess, clientID: ref.clientID})
		delete(e.owners, exID)
	}
}

func (e *Exchange) execModify(sess *orderentry.ExchangeSession, m *orderentry.Msg) {
	if e.crashed {
		e.dropCrashed(m)
		return
	}
	if e.jrn != nil {
		e.jrn.Op(e.sessIdx[sess], replication.OpModify, m.OrderID, m.Symbol, m.Side, m.Price, m.Qty)
	}
	if t := m.Trace; t != nil {
		t.Record(e.cfg.Name, trace.CauseSoftware, e.sched.Now())
		t.Finish(trace.EndConsumed)
		m.Trace = nil
	}
	exID, ok := e.findOrder(sess, m.OrderID)
	if !ok {
		sess.CancelReject(m.OrderID)
		return
	}
	book := e.Book(m.Symbol)
	fills, live := book.Modify(exID, m.Price, m.Qty)
	if !live {
		sess.CancelReject(m.OrderID)
		return
	}
	sess.ModifyAck(m.OrderID)
	e.publish(m.Symbol, &feed.Msg{
		Type: feed.MsgModifyOrder, TimeNs: e.timeNs(), OrderID: uint64(exID),
		Qty: uint32(m.Qty), Price: uint64(m.Price),
	})
	e.reportFills(m.Symbol, fills)
}

// findOrder maps a (session, client id) to a live exchange order id.
func (e *Exchange) findOrder(sess *orderentry.ExchangeSession, clientID uint64) (market.OrderID, bool) {
	exID, ok := e.byOwner[ownerKey{sess: sess, clientID: clientID}]
	return exID, ok
}

// orderSymbol returns the symbol an order was entered on; ownership records
// it at accept time, so no book scan is needed. Symbol 1 is the
// deterministic fallback for orders that already left ownership (the
// publisher only needs a partition).
func (e *Exchange) orderSymbol(exID market.OrderID) market.SymbolID {
	if ref, ok := e.owners[exID]; ok {
		return ref.sym
	}
	return 1
}

func (e *Exchange) reportFills(sym market.SymbolID, fills []market.Fill) {
	for _, fl := range fills {
		e.nextExecID++
		e.Executions++
		// Notify both sides if they are session-backed.
		for _, oid := range []market.OrderID{fl.Resting} {
			if ref, ok := e.owners[oid]; ok {
				ref.sess.Fill(ref.clientID, fl.Qty, fl.Price)
				// Remove fully filled resting orders from ownership.
				if _, live := e.Book(sym).Lookup(oid); !live {
					e.dropOwner(oid)
				}
			}
		}
		if ref, ok := e.owners[marketIncoming(fl)]; ok {
			ref.sess.Fill(ref.clientID, fl.Qty, fl.Price)
			if _, live := e.Book(sym).Lookup(marketIncoming(fl)); !live {
				e.dropOwner(marketIncoming(fl))
			}
		}
		e.publish(sym, &feed.Msg{
			Type: feed.MsgOrderExecuted, TimeNs: e.timeNs(),
			OrderID: uint64(fl.Resting), Qty: uint32(fl.Qty), ExecID: e.nextExecID,
		})
	}
}

func marketIncoming(fl market.Fill) market.OrderID { return fl.Incoming }

func (e *Exchange) publishAdd(m *orderentry.Msg, exID market.OrderID, fills []market.Fill) {
	var rem market.Qty = m.Qty
	for _, fl := range fills {
		rem -= fl.Qty
	}
	if rem <= 0 {
		return // fully matched on arrival: no resting add appears
	}
	msg := feed.Msg{
		Type: feed.MsgAddOrder, TimeNs: e.timeNs(), OrderID: uint64(exID),
		Side: m.Side, Qty: uint32(rem), Price: uint64(m.Price),
	}
	msg.SetSymbol(e.u.Get(m.Symbol).Ticker)
	e.publish(m.Symbol, &msg)
}

func (e *Exchange) timeNs() uint32 {
	return uint32(int64(e.sched.Now()/sim.Time(sim.Nanosecond)) % 1_000_000_000)
}

// publish encodes msg onto the symbol's partition and transmits the
// datagram immediately (one message per datagram at match-time; bursts
// coalesce through PublishBurst).
func (e *Exchange) publish(sym market.SymbolID, msg *feed.Msg) {
	if e.dark {
		// A standby shadow publishes nothing of its own: the primary's
		// datagrams arrive byte-exact through the journal (adoptFeedDgram).
		return
	}
	part := e.partMap.Partitioner().Partition(sym)
	p := e.packers[part]
	if !p.Add(msg) {
		e.flush(part)
		p.Add(msg)
	}
	e.PublishedMsgs++
	e.flush(part)
}

func (e *Exchange) flush(part int) {
	group := e.partMap.GroupByIndex(part)
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(group), IP: group, Port: MDPort}
	src := e.mdNIC.Addr(MDPort)
	e.packers[part].Flush(func(dgram []byte) {
		e.retain[part].Retain(dgram)
		if e.jrn != nil {
			e.jrn.FeedRaw(part, dgram)
			e.lastPublishAt = e.sched.Now()
		}
		if e.onPublishDgram != nil {
			e.onPublishDgram(dgram)
		}
		e.ipID++
		// Build straight into a pooled frame (no intermediate scratch copy)
		// so the flight recorder can ride the frame from the instant of
		// publication. Send stamps Origin exactly as SendBytes did.
		fr := netsim.NewFrame()
		fr.Data = pkt.AppendUDPFrame(fr.Data, src, dst, e.ipID, dgram)
		if e.tracer != nil {
			fr.Trace = e.tracer.Start(e.sched.Now())
		}
		e.mdNIC.Send(fr)
		e.Published++
	})
}

// PublishBurst generates n synthetic market-data messages across random
// symbols and publishes them packed per partition — the headless mode
// feed-driven experiments use, bypassing the matching engine.
func (e *Exchange) PublishBurst(rng *rand.Rand, n int) {
	if e.dark || e.crashed {
		return
	}
	types := []feed.MsgType{feed.MsgAddOrder, feed.MsgDeleteOrder, feed.MsgOrderExecuted, feed.MsgModifyOrder}
	touched := make(map[int]bool)
	var msg feed.Msg
	for i := 0; i < n; i++ {
		sym := market.SymbolID(1 + rng.Intn(e.u.Len()))
		msg = feed.Msg{
			Type:    types[rng.Intn(len(types))],
			TimeNs:  e.timeNs(),
			OrderID: rng.Uint64(),
			Qty:     uint32(1 + rng.Intn(300)),
			Price:   uint64(10000 + rng.Intn(100000)),
		}
		if msg.Type == feed.MsgAddOrder {
			msg.Side = market.Side(rng.Intn(2))
			msg.SetSymbol(e.u.Get(sym).Ticker)
		}
		part := e.partMap.Partitioner().Partition(sym)
		if !e.packers[part].Add(&msg) {
			e.flush(part)
			e.packers[part].Add(&msg)
		}
		e.PublishedMsgs++
		touched[part] = true
	}
	// Flush in partition order: map iteration order must not leak into the
	// event schedule, or runs stop being reproducible.
	for part := range e.packers {
		if touched[part] {
			e.flush(part)
		}
	}
}
