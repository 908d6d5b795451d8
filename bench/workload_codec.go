package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
)

const (
	codecBatch   = 4096 // frames (or orders) per batch
	codecSymbols = 26
	codecMid     = 10000 // bids rest below, asks above: the books never cross
	codecLiveCap = 8192  // past this many live orders the flow turns to deletes
)

// codecJob is codec-stream: no scheduler. A seeded coherent order flow is
// pushed batch by batch through the wire codecs and into books, one feed
// variant after another, then order-entry round trips through a session pair.
// Every stage handles a whole batch before the next starts, so the harness
// can time a stage with two clock reads per batch.
type codecJob struct {
	env *runEnv
	rng *rand.Rand
	u   *market.Universe

	// Order-flow state. Ids and time run on across variants; the live set
	// restarts with each variant's empty books.
	live   []liveOrder
	liveAt []int // live orders left at the end of each variant
	nextID uint64
	timeNs uint32

	// Per-batch buffers, reused.
	want, got, norm []feed.Msg
	dgrams, frames  []byte
	dgramEnd        []int
	payloads        [][]byte

	feedMsgs int64
	books    [][]*market.Book // per variant, indexed by SymbolID-1
	acked    int64
}

type liveOrder struct {
	id  uint64
	qty uint32
}

func (j *codecJob) setup() {
	j.rng = rand.New(rand.NewSource(j.env.seed))
	j.u = market.NewUniverse()
	for i := 0; i < codecSymbols; i++ {
		j.u.Add(fmt.Sprintf("%c%c%c", 'A'+i, 'A'+(i*7)%26, 'A'+(i*11)%26), market.Equity, 0)
	}
}

func (j *codecJob) run() {
	for _, v := range []*feed.Variant{feed.ExchangeA, feed.ExchangeB, feed.ExchangeC} {
		j.runVariant(v)
	}
	j.runOrders()
}

// nextMsg draws the next message of the flow: an add of a fresh id, or a
// delete / execution of a live one.
func (j *codecJob) nextMsg(m *feed.Msg) {
	j.timeNs += uint32(1 + j.rng.Intn(400))
	*m = feed.Msg{TimeNs: j.timeNs % 1_000_000_000}
	pAdd := 0.7
	if len(j.live) >= codecLiveCap {
		pAdd = 0.3
	}
	if len(j.live) == 0 || j.rng.Float64() < pAdd {
		j.nextID++
		m.Type = feed.MsgAddOrder
		m.OrderID = j.nextID
		m.Side = market.Side(j.rng.Intn(2))
		off := uint64(1 + j.rng.Intn(20))
		if m.Side == market.Buy {
			m.Price = codecMid - off
		} else {
			m.Price = codecMid + off
		}
		m.Qty = uint32(100 * (1 + j.rng.Intn(9)))
		m.SetSymbol(j.u.Get(market.SymbolID(1 + j.rng.Intn(codecSymbols))).Ticker)
		j.live = append(j.live, liveOrder{m.OrderID, m.Qty})
		return
	}
	i := j.rng.Intn(len(j.live))
	lo := &j.live[i]
	m.OrderID = lo.id
	if j.rng.Intn(5) < 3 {
		m.Type = feed.MsgDeleteOrder
		lo.qty = 0
	} else {
		m.Type = feed.MsgOrderExecuted
		m.Qty = 100
		m.ExecID = uint64(j.timeNs)
		lo.qty -= 100
	}
	if lo.qty == 0 {
		j.live[i] = j.live[len(j.live)-1]
		j.live = j.live[:len(j.live)-1]
	}
}

func (j *codecJob) runVariant(v *feed.Variant) {
	env := j.env
	packer := feed.NewPacker(v, 0)
	reasm := feed.NewReassembler(0)
	books := make([]*market.Book, codecSymbols)
	for i := range books {
		books[i] = market.NewBook(market.SymbolID(i + 1))
	}
	j.books = append(j.books, books)
	j.live = j.live[:0]
	byOrder := make(map[uint64]*market.Book)
	group := pkt.MulticastGroup(1, 0)
	src := pkt.UDPAddr{MAC: pkt.HostMAC(100), IP: pkt.HostIP(100), Port: 30001}
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(group), IP: group, Port: 30001}
	var ipID uint16
	var scratch []byte
	emit := func(d []byte) {
		j.dgrams = append(j.dgrams, d...)
		j.dgramEnd = append(j.dgramEnd, len(j.dgrams))
	}
	collect := func(m *feed.Msg) { j.got = append(j.got, *m) }

	for done := 0; done < env.scale.codecFrames; done += codecBatch {
		n := min(codecBatch, env.scale.codecFrames-done)
		j.want, j.got, j.norm = j.want[:0], j.got[:0], j.norm[:0]
		j.dgrams, j.dgramEnd, j.frames, j.payloads = j.dgrams[:0], j.dgramEnd[:0], j.frames[:0], j.payloads[:0]
		decodeErrs := 0

		env.span("feed.gen_encode", func() {
			var m feed.Msg
			for f := 0; f < n; f++ {
				k := 1
				if j.rng.Intn(10) >= 7 {
					k = 2 + j.rng.Intn(7)
				}
				for ; k > 0; k-- {
					j.nextMsg(&m)
					j.want = append(j.want, m)
					if !packer.Add(&m) {
						packer.Flush(emit)
						packer.Add(&m)
					}
				}
				packer.Flush(emit)
			}
		})
		env.span("pkt.frame_parse", func() {
			var uf pkt.UDPFrame
			start := 0
			for _, end := range j.dgramEnd {
				ipID++
				at := len(j.frames)
				j.frames = pkt.AppendUDPFrame(j.frames, src, dst, ipID, j.dgrams[start:end])
				if err := pkt.ParseUDPFrame(j.frames[at:], &uf); err != nil {
					decodeErrs++
				}
				j.payloads = append(j.payloads, uf.Payload)
				start = end
			}
		})
		env.span("feed.reassemble", func() {
			for _, p := range j.payloads {
				if err := reasm.Consume(p, collect); err != nil {
					decodeErrs++
				}
			}
		})
		env.span("feed.normalize", func() {
			var nm feed.Msg
			for i := range j.got {
				scratch = feed.Internal.Append(scratch[:0], &j.got[i])
				if _, err := feed.Decode(scratch, &nm); err != nil {
					decodeErrs++
				}
				j.norm = append(j.norm, nm)
			}
		})
		env.span("market.book_apply", func() {
			for i := range j.norm {
				j.apply(&j.norm[i], books, byOrder)
			}
		})

		// One operation per message: it must come out of the last codec
		// equal to what was generated.
		start := 0
		for i, end := range j.dgramEnd {
			if !bytes.Equal(j.payloads[i], j.dgrams[start:end]) {
				decodeErrs++
			}
			start = end
		}
		for i := range j.want {
			if i < len(j.norm) && j.norm[i] == j.want[i] {
				env.attempted++
			} else {
				env.check(false, "%s: message %d of a batch decoded differently", v.Name, i)
			}
		}
		env.check(decodeErrs == 0 && len(j.norm) == len(j.want), "%s: %d decode errors, %d of %d messages through", v.Name, decodeErrs, len(j.norm), len(j.want))
		j.feedMsgs += int64(len(j.want))
	}
	j.liveAt = append(j.liveAt, len(j.live))
}

// apply updates a book the way firm.Strategy does from the normalized feed.
func (j *codecJob) apply(m *feed.Msg, books []*market.Book, byOrder map[uint64]*market.Book) {
	switch m.Type {
	case feed.MsgAddOrder:
		if id, ok := j.u.Lookup(m.SymbolString()); ok {
			b := books[id-1]
			b.Add(market.Order{ID: market.OrderID(m.OrderID), Symbol: id, Side: m.Side, Price: market.Price(m.Price), Qty: market.Qty(m.Qty)})
			byOrder[m.OrderID] = b
		}
	case feed.MsgDeleteOrder:
		if b, ok := byOrder[m.OrderID]; ok {
			b.Cancel(market.OrderID(m.OrderID))
			delete(byOrder, m.OrderID)
		}
	case feed.MsgOrderExecuted:
		if b, ok := byOrder[m.OrderID]; ok {
			if o, live := b.Lookup(market.OrderID(m.OrderID)); live {
				rem := o.Qty - market.Qty(m.Qty)
				b.Modify(market.OrderID(m.OrderID), o.Price, rem)
				if rem <= 0 {
					delete(byOrder, m.OrderID)
				}
			}
		}
	}
}

// runOrders drives new-order → ack round trips through a client/exchange
// session pair joined back to back; each batch is one session's life.
func (j *codecJob) runOrders() {
	env := j.env
	for done := 0; done < env.scale.codecOrders; done += codecBatch {
		n := min(codecBatch, env.scale.codecOrders-done)
		var c *orderentry.ClientSession
		var e *orderentry.ExchangeSession
		acked, errs := 0, 0
		env.span("orderentry.roundtrip", func() {
			c = orderentry.NewClientSession(func(b []byte) {
				if err := e.Receive(b); err != nil {
					errs++
				}
			})
			e = orderentry.NewExchangeSession(func(b []byte) {
				if err := c.Receive(b); err != nil {
					errs++
				}
			})
			e.OnNew = func(m *orderentry.Msg) { e.Ack(m.OrderID, m.OrderID+1_000_000) }
			c.OnExchangeID = func(id, exID uint64) {
				if exID == id+1_000_000 {
					acked++
				}
			}
			c.Logon()
			for i := 1; i <= n; i++ {
				sym := market.SymbolID(1 + j.rng.Intn(codecSymbols))
				if err := c.NewOrder(uint64(i), sym, market.Side(i&1), market.Price(codecMid+i%20), 100); err != nil {
					errs++
				}
			}
		})
		j.acked += int64(acked)
		env.attempted += int64(n)
		if miss := int64(n - acked); miss > 0 {
			env.failed += miss
		}
		env.check(errs == 0 && c.Open() == n, "order entry: %d session errors, %d of %d orders open", errs, c.Open(), n)
	}
}

func (j *codecJob) verify() {
	env := j.env
	var bboSum int64
	for vi, books := range j.books {
		resting := 0
		for _, b := range books {
			bbo := b.BBO()
			env.check(!bbo.Valid() || bbo.Bid.Price < bbo.Ask.Price, "variant %d symbol %d: crossed book", vi, b.Symbol())
			resting += b.Orders()
			bboSum += int64(bbo.Bid.Price) + int64(bbo.Ask.Price)
		}
		env.check(resting == j.liveAt[vi], "variant %d: books hold %d orders, the flow left %d live", vi, resting, j.liveAt[vi])
	}
	env.sim = fmt.Sprintf("feed_msgs=%d live=%v bbo_sum=%d acked=%d", j.feedMsgs, j.liveAt, bboSum, j.acked)
	env.feedMsgs = j.feedMsgs
}
