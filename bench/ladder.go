package main

import (
	"runtime"
	"sort"
	"time"

	"tradenet/internal/core"
	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/feed"
	"tradenet/internal/firm"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/redundancy"
	"tradenet/internal/replication"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// The ladder: the unit cost of each layer's public operations, one rung per
// operation, bottom (sim) to top (core). A rung is timed over a fixed
// iteration count, so two commits do the same work; ns and allocs are per
// operation, the median of ladderBatches batches.

const ladderBatches = 5

// rung is one ladder operation. prep builds the fixtures and returns the
// batch body, which performs n operations.
type rung struct {
	name  string
	iters int // operations per batch at full scale (≈ 60–100 ms on the reference box)
	prep  func() func(n int)
}

type rungResult struct {
	NS     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
}

// runLadder measures every rung.
func runLadder(sc scale) map[string]rungResult {
	out := make(map[string]rungResult, len(ladder))
	for _, r := range ladder {
		n := max(r.iters/sc.ladderDiv, 1)
		body := r.prep()
		body(max(n/8, 1)) // warm pools, maps and free lists
		var ns, allocs [ladderBatches]float64
		var m0, m1 runtime.MemStats
		for b := range ns {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			body(n)
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			ns[b] = float64(el.Nanoseconds()) / float64(n)
			allocs[b] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
		out[r.name] = rungResult{NS: median(ns[:]), Allocs: median(allocs[:])}
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// --- fixtures ----------------------------------------------------------------

// sink terminates frames, as an application that is done with the bytes does.
type sink struct{}

func (sink) HandleFrame(_ *netsim.Port, f *netsim.Frame) { f.Release() }

// terminate connects p to a fresh sink port so p can transmit.
func terminate(sched *sim.Scheduler, p *netsim.Port) {
	netsim.Connect(p, netsim.NewPort(sched, sink{}, p.Name+"/sink"), units.Rate10G, 25*sim.Nanosecond)
}

func noop2(_, _ any) {}

var (
	rungGroup = pkt.MulticastGroup(1, 0)
	rungSrc   = pkt.UDPAddr{MAC: pkt.HostMAC(100), IP: pkt.HostIP(100), Port: exchange.MDPort}
	rungMcast = pkt.UDPAddr{MAC: pkt.MulticastMAC(rungGroup), IP: rungGroup, Port: exchange.MDPort}
	rungUcast = pkt.UDPAddr{MAC: pkt.HostMAC(7), IP: pkt.HostIP(7), Port: 5000}
)

// udpFrame builds a UDP frame of exactly size bytes (Table 1's Exchange B
// median is 76, its maximum 1067).
func udpFrame(dst pkt.UDPAddr, size int) []byte {
	return pkt.AppendUDPFrame(nil, rungSrc, dst, 1, make([]byte, size-pkt.UDPOverhead))
}

func addMsg(id uint64) feed.Msg {
	m := feed.Msg{Type: feed.MsgAddOrder, TimeNs: 1, OrderID: id, Side: market.Buy, Qty: 100, Price: 9990}
	m.SetSymbol("AAA")
	return m
}

// rungUniverse is core's universe shape: three-letter tickers, AAA first.
func rungUniverse() *market.Universe {
	u := market.NewUniverse()
	for i := 0; i < 26; i++ {
		u.Add(string([]byte{byte('A' + i), 'A', 'A'}), market.Equity, 0)
	}
	return u
}

// oeClient is a bare order-entry client host: what a strategy or gateway is
// on its order side, without the rest of the application.
func oeClient(sched *sim.Scheduler, name string, id uint32) *netsim.NIC {
	return netsim.NewHost(sched, name).AddNIC("oe", id)
}

func dial(nic *netsim.NIC, localPort uint16, remote pkt.UDPAddr) *orderentry.ClientSession {
	mux := netsim.NewStreamMux(nic)
	st := netsim.NewStream(nic, localPort, remote)
	mux.Register(st)
	c := orderentry.NewClientSession(func(b []byte) { st.Write(b) })
	st.OnData = func(b []byte) { _ = c.Receive(b) } // a sequence error shows as missing acks
	return c
}

// newExchange builds an exchange whose feed goes to a sink.
func newExchange(sched *sim.Scheduler, u *market.Universe) *exchange.Exchange {
	raw := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	ex := exchange.New(sched, u, raw, exchange.Config{ID: 1, Name: "EXCH", Variant: feed.ExchangeB, HostID: 100})
	terminate(sched, ex.MDNIC().Port)
	return ex
}

func sendDeliver(size int) func() func(int) {
	return func() func(int) {
		sched := sim.NewScheduler(1)
		p := netsim.NewPort(sched, sink{}, "tx")
		p.SetQueueCapacity(1 << 30)
		terminate(sched, p)
		data := udpFrame(rungUcast, size)
		return func(n int) {
			for i := 0; i < n; i += 256 {
				for j := 0; j < 256 && i+j < n; j++ {
					p.Send(netsim.NewFrameBytes(data))
				}
				sched.Run()
			}
		}
	}
}

func frameClone(size int) func() func(int) {
	return func() func(int) {
		f := netsim.NewFrameBytes(udpFrame(rungUcast, size))
		return func(n int) {
			for i := 0; i < n; i++ {
				f.Clone().Release()
			}
		}
	}
}

// forwardVia times dev.HandleFrame on ingress plus everything it schedules,
// 64 frames per scheduler run.
func forwardVia(sched *sim.Scheduler, dev netsim.Handler, ingress []*netsim.Port, data []byte) func(int) {
	return func(n int) {
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64 && i+j < n; j++ {
				dev.HandleFrame(ingress[(i+j)%len(ingress)], netsim.NewFrameBytes(data))
			}
			sched.Run()
		}
	}
}

// patchSeq rewrites the unit-header sequence of the datagram inside frame
// (UDP checksums are zero on these feeds, so the frame stays valid).
func patchSeq(frame []byte, seq uint32) {
	p := frame[pkt.UDPOverhead+4:]
	p[0], p[1], p[2], p[3] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
}

// feedFrame builds a frame to dst carrying one datagram of msgs for unit in
// variant v.
func feedFrame(v *feed.Variant, unit uint8, dst pkt.UDPAddr, msgs ...feed.Msg) []byte {
	pk := feed.NewPacker(v, unit)
	for i := range msgs {
		pk.Add(&msgs[i])
	}
	var frame []byte
	pk.Flush(func(d []byte) { frame = pkt.AppendUDPFrame(nil, rungSrc, dst, 1, d) })
	return frame
}

// --- the rungs ---------------------------------------------------------------

var ladder = []rung{
	{"sim.schedule_fire", 1_200_000, func() func(int) {
		s := sim.NewScheduler(1)
		return func(n int) {
			for i := 0; i < n; i++ {
				s.AfterArgs(sim.Duration(i%1000+1)*sim.Nanosecond, sim.PrioDeliver, noop2, nil, nil)
				if s.Pending() >= 4096 {
					s.Run()
				}
			}
			s.Run()
		}
	}},
	// 256 mixed-priority events into one 4 ns wheel slot, scheduled from
	// inside that slot so they insert straight into the ordered level-0 list.
	{"sim.schedule_dense_tick", 400_000, func() func(int) {
		s := sim.NewScheduler(1)
		prios := [...]int{sim.PrioDeliver, sim.PrioDrain, sim.PrioControl, sim.PrioDeliver}
		fill := func() {
			now := s.Now()
			for j := 0; j < 256; j++ {
				s.AtArgs(now.Add(sim.Duration(j*37%4000)), prios[j&3], noop2, nil, nil)
			}
		}
		return func(n int) {
			for i := 0; i < n; i += 256 {
				s.At(s.Now().Add(sim.Microsecond)&^4095, fill)
				s.Run()
			}
		}
	}},
	{"sim.schedule_cancel", 3_000_000, func() func(int) {
		s := sim.NewScheduler(1)
		for i := 0; i < 64; i++ { // keep the wheel occupied: no lone-event fast path
			s.AfterArgs(sim.Second+sim.Duration(i)*sim.Microsecond, sim.PrioDeliver, noop2, nil, nil)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				s.AfterArgs(sim.Duration(i%200+1)*sim.Microsecond, sim.PrioDeliver, noop2, nil, nil).Cancel()
			}
		}
	}},
	// A liveness deadline pushed out on every message, at control priority,
	// while the clock advances: cancel + re-arm through a Handle.
	{"sim.timer_rearm", 3_000_000, func() func(int) {
		s := sim.NewScheduler(1)
		for i := 0; i < 64; i++ {
			s.AfterArgs(sim.Second*3600+sim.Duration(i)*sim.Microsecond, sim.PrioDeliver, noop2, nil, nil)
		}
		var h sim.Handle
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Cancel()
				h = s.AfterArgs(200*sim.Microsecond, sim.PrioControl, noop2, nil, nil).Handle()
				if i&63 == 0 {
					s.RunUntil(s.Now().Add(sim.Microsecond))
				}
			}
		}
	}},

	{"netsim.port_send_deliver_76B", 500_000, sendDeliver(76)},
	{"netsim.port_send_deliver_1067B", 400_000, sendDeliver(1067)},
	{"netsim.frame_clone_76B", 3_000_000, frameClone(76)},
	{"netsim.frame_clone_1067B", 2_000_000, frameClone(1067)},
	{"netsim.stream_write_ack", 150_000, func() func(int) {
		sched := sim.NewScheduler(1)
		n1, n2 := oeClient(sched, "client", 10), oeClient(sched, "server", 20)
		netsim.Connect(n1.Port, n2.Port, units.Rate10G, 500*sim.Nanosecond)
		m1, m2 := netsim.NewStreamMux(n1), netsim.NewStreamMux(n2)
		s1 := netsim.NewStream(n1, 40000, n2.Addr(443))
		s2 := netsim.NewStream(n2, 443, n1.Addr(40000))
		m1.Register(s1)
		m2.Register(s2)
		s2.OnData = func([]byte) {}
		payload := make([]byte, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				s1.Write(payload)
				sched.Run()
			}
		}
	}},

	{"device.commodity_unicast", 300_000, func() func(int) {
		sched := sim.NewScheduler(1)
		sw := device.NewCommoditySwitch(sched, "sw", 2, device.DefaultCommodityConfig())
		terminate(sched, sw.Port(1))
		sw.Learn(rungUcast.MAC, 1)
		return forwardVia(sched, sw, []*netsim.Port{sw.Port(0)}, udpFrame(rungUcast, 76))
	}},
	{"device.commodity_mcast_x32", 20_000, func() func(int) {
		sched := sim.NewScheduler(1)
		sw := device.NewCommoditySwitch(sched, "sw", 33, device.DefaultCommodityConfig())
		for i := 1; i <= 32; i++ {
			terminate(sched, sw.Port(i))
			sw.JoinGroup(rungGroup, i)
		}
		return forwardVia(sched, sw, []*netsim.Port{sw.Port(0)}, udpFrame(rungMcast, 76))
	}},
	{"device.l1s_fanout_x32", 12_000, func() func(int) {
		sched := sim.NewScheduler(1)
		sw := device.NewL1Switch(sched, "l1s", 33, device.DefaultL1SConfig())
		outs := make([]int, 32)
		for i := range outs {
			outs[i] = i + 1
			terminate(sched, sw.Port(i+1))
		}
		sw.Circuit(0, outs...)
		return forwardVia(sched, sw, []*netsim.Port{sw.Port(0)}, udpFrame(rungMcast, 76))
	}},
	{"device.l1s_merge_x4", 300_000, func() func(int) {
		sched := sim.NewScheduler(1)
		sw := device.NewL1Switch(sched, "l1s", 5, device.DefaultL1SConfig())
		terminate(sched, sw.Port(4))
		var in []*netsim.Port
		for i := 0; i < 4; i++ {
			sw.Circuit(i, 4)
			in = append(in, sw.Port(i))
		}
		return forwardVia(sched, sw, in, udpFrame(rungUcast, 76))
	}},
	{"device.cloud_equalize", 150_000, func() func(int) {
		sched := sim.NewScheduler(1)
		lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
		eq := device.NewCloudEqualizer(sched, "cloud", lats, device.DefaultCloudConfig())
		for i := 1; i <= eq.Tenants(); i++ {
			terminate(sched, eq.TenantPort(i))
		}
		return forwardVia(sched, eq, []*netsim.Port{eq.ExchangePort()}, udpFrame(rungMcast, 76))
	}},

	{"pkt.append_udp", 2_000_000, func() func(int) {
		payload, buf := make([]byte, 64), make([]byte, 0, 256)
		return func(n int) {
			for i := 0; i < n; i++ {
				buf = pkt.AppendUDPFrame(buf[:0], rungSrc, rungMcast, uint16(i), payload)
			}
		}
	}},
	{"pkt.parse_udp", 4_000_000, func() func(int) {
		frame := udpFrame(rungMcast, 106)
		var f pkt.UDPFrame
		return func(n int) {
			for i := 0; i < n; i++ {
				if pkt.ParseUDPFrame(frame, &f) != nil {
					panic("bench: parse_udp rung fixture does not parse")
				}
			}
		}
	}},
	{"pkt.parse_tcp", 4_000_000, func() func(int) {
		frame := pkt.AppendTCPFrame(nil, rungSrc, rungUcast, &pkt.TCP{Seq: 1, Ack: 1, Flags: pkt.FlagACK | pkt.FlagPSH}, make([]byte, 47))
		var f pkt.TCPFrame
		return func(n int) {
			for i := 0; i < n; i++ {
				if pkt.ParseTCPFrame(frame, &f) != nil {
					panic("bench: parse_tcp rung fixture does not parse")
				}
			}
		}
	}},

	{"feed.encode_msg", 5_000_000, func() func(int) {
		m, buf := addMsg(1), make([]byte, 0, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				buf = feed.ExchangeB.Append(buf[:0], &m)
			}
		}
	}},
	{"feed.decode_msg", 8_000_000, func() func(int) {
		m := addMsg(1)
		enc := feed.ExchangeB.Append(nil, &m)
		var out feed.Msg
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := feed.Decode(enc, &out); err != nil {
					panic("bench: decode_msg rung fixture does not decode")
				}
			}
		}
	}},
	{"feed.reassemble_dgram", 1_500_000, func() func(int) {
		frame := feedFrame(feed.ExchangeB, 0, rungMcast, addMsg(1), addMsg(2), addMsg(3), addMsg(4))
		r := feed.NewReassembler(0)
		seq := uint32(1)
		count := func(*feed.Msg) {}
		return func(n int) {
			for i := 0; i < n; i++ {
				patchSeq(frame, seq)
				seq += 4
				if r.Consume(frame[pkt.UDPOverhead:], count) != nil {
					panic("bench: reassemble rung saw a gap")
				}
			}
		}
	}},
	// One datagram arriving on both paths: A delivers, B is the duplicate.
	{"feed.arbiter_dgram", 600_000, func() func(int) {
		frame := feedFrame(feed.ExchangeB, 0, rungMcast, addMsg(1), addMsg(2), addMsg(3), addMsg(4))
		a := feed.NewArbiter(0)
		seq := uint32(1)
		count := func(*feed.Msg) {}
		return func(n int) {
			d := frame[pkt.UDPOverhead:]
			for i := 0; i < n; i++ {
				patchSeq(frame, seq)
				seq += 4
				if a.ConsumeA(d, count) != nil || a.ConsumeB(d, count) != nil {
					panic("bench: arbiter rung saw an error")
				}
			}
		}
	}},

	{"orderentry.append_decode", 4_000_000, func() func(int) {
		m := orderentry.Msg{Kind: orderentry.KindNewOrder, Seq: 1, OrderID: 7, Symbol: 1, Side: market.Buy, Price: 10000, Qty: 100}
		buf := make([]byte, 0, 64)
		var out orderentry.Msg
		return func(n int) {
			for i := 0; i < n; i++ {
				buf = orderentry.Append(buf[:0], &m)
				if _, err := orderentry.Decode(buf, &out); err != nil {
					panic("bench: orderentry rung fixture does not decode")
				}
			}
		}
	}},
	{"orderentry.session_roundtrip", 200_000, func() func(int) {
		return func(n int) {
			var c *orderentry.ClientSession
			var e *orderentry.ExchangeSession
			for i := 0; i < n; i++ {
				if i%codecBatch == 0 { // one session's life, as in codec-stream
					c = orderentry.NewClientSession(func(b []byte) { _ = e.Receive(b) })
					e = orderentry.NewExchangeSession(func(b []byte) { _ = c.Receive(b) })
					e.OnNew = func(m *orderentry.Msg) { e.Ack(m.OrderID, m.OrderID+500) }
					c.Logon()
				}
				if c.NewOrder(uint64(i+1), 1, market.Buy, 1000, 10) != nil {
					panic("bench: session rung not logged on")
				}
			}
		}
	}},

	{"market.book_add_cancel", 1_500_000, func() func(int) {
		book := market.NewBook(1)
		id := market.OrderID(0)
		return func(n int) {
			for i := 0; i < n; i++ {
				id++
				book.Add(market.Order{ID: id, Side: market.Side(i & 1), Price: market.Price(9990 - 20*(i&1) + i%20), Qty: 100})
				if i&1 == 1 {
					book.Cancel(id - 1)
					book.Cancel(id)
				}
			}
		}
	}},
	// A resting sell, then a buy that crosses it: two adds, one fill.
	{"market.book_cross", 700_000, func() func(int) {
		book := market.NewBook(1)
		id := market.OrderID(0)
		return func(n int) {
			for i := 0; i < n; i++ {
				id += 2
				book.Add(market.Order{ID: id, Side: market.Sell, Price: 10000, Qty: 100})
				if len(book.Add(market.Order{ID: id + 1, Side: market.Buy, Price: 10000, Qty: 100})) != 1 {
					panic("bench: book_cross rung did not fill")
				}
			}
		}
	}},

	// A new order over a stream into the engine: ack back, book add, feed
	// publish. Sides alternate at one price, so every second order matches.
	{"exchange.order_match_publish", 30_000, func() func(int) {
		sched := sim.NewScheduler(1)
		ex := newExchange(sched, rungUniverse())
		nic := oeClient(sched, "client", 50000)
		netsim.Connect(nic.Port, ex.OENIC().Port, units.Rate10G, 25*sim.Nanosecond)
		_, port := ex.AcceptSession(nic.Addr(41000))
		c := dial(nic, 41000, ex.OENIC().Addr(port))
		c.Logon()
		sched.Run()
		id := uint64(0)
		return func(n int) {
			for i := 0; i < n; i++ {
				id++
				if c.NewOrder(id, 1, market.Side(id&1), 10000, 100) != nil {
					panic("bench: exchange rung not logged on")
				}
				sched.Run()
			}
		}
	}},

	{"firm.normalizer_frame", 100_000, func() func(int) {
		sched := sim.NewScheduler(1)
		u := rungUniverse()
		raw := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByAlpha, 0), mcast.NewAllocator(1))
		out := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByHash, 8), mcast.NewAllocator(2))
		nz := firm.NewNormalizer(sched, u, "norm", 1000, feed.ExchangeB, raw, out, firm.NormalizerConfig{ProcLatency: 2 * sim.Microsecond})
		terminate(sched, nz.RawNIC().Port)
		terminate(sched, nz.PubNIC().Port)
		g := raw.GroupByIndex(0)
		add := addMsg(1)
		del := feed.Msg{Type: feed.MsgDeleteOrder, TimeNs: 2, OrderID: 1}
		frame := feedFrame(feed.ExchangeB, 0, pkt.UDPAddr{MAC: pkt.MulticastMAC(g), IP: g, Port: exchange.MDPort}, add, del)
		in, owner := nz.RawNIC().Port, nz.RawNIC().Port.Owner
		seq := uint32(1)
		return func(n int) {
			for i := 0; i < n; i++ {
				patchSeq(frame, seq)
				seq += 2
				owner.HandleFrame(in, netsim.NewFrameBytes(frame))
				sched.Run()
			}
		}
	}},
	{"firm.strategy_frame", 300_000, func() func(int) {
		sched := sim.NewScheduler(1)
		u := rungUniverse()
		out := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByHash, 8), mcast.NewAllocator(2))
		part := out.Partitioner().Partition(1)
		st := firm.NewStrategy(sched, u, "strat", 10000, out, firm.StrategyConfig{DecisionLatency: 2 * sim.Microsecond, Subscriptions: []int{part}})
		terminate(sched, st.MDNIC().Port)
		g := out.GroupByIndex(part)
		add := addMsg(1)
		del := feed.Msg{Type: feed.MsgDeleteOrder, TimeNs: 2, OrderID: 1}
		frame := feedFrame(feed.Internal, uint8(part), pkt.UDPAddr{MAC: pkt.MulticastMAC(g), IP: g, Port: firm.NormalizedPort}, add, del)
		in, owner := st.MDNIC().Port, st.MDNIC().Port.Owner
		seq := uint32(1)
		return func(n int) {
			for i := 0; i < n; i++ {
				patchSeq(frame, seq)
				seq += 2
				owner.HandleFrame(in, netsim.NewFrameBytes(frame))
			}
			if st.MsgsIn != uint64(seq-1) {
				panic("bench: strategy rung dropped frames")
			}
		}
	}},
	// A strategy-side new order relayed through a gateway to the exchange,
	// and the ack relayed back.
	{"firm.gateway_relay", 12_000, func() func(int) {
		sched := sim.NewScheduler(1)
		ex := newExchange(sched, rungUniverse())
		gw := firm.NewGateway(sched, "gw", 50000, firm.GatewayConfig{TranslateLatency: 2 * sim.Microsecond})
		netsim.Connect(gw.ExNIC().Port, ex.OENIC().Port, units.Rate10G, 25*sim.Nanosecond)
		_, port := ex.AcceptSession(gw.ExNIC().Addr(41000))
		gw.ConnectExchange(41000, ex.OENIC().Addr(port))
		nic := oeClient(sched, "strat", 10001)
		netsim.Connect(nic.Port, gw.InNIC().Port, units.Rate10G, 25*sim.Nanosecond)
		c := dial(nic, 42000, gw.InNIC().Addr(gw.AcceptStrategy(nic.Addr(42000))))
		c.Logon()
		sched.Run()
		acks := 0
		c.OnAck = func(uint64) { acks++ }
		id := uint64(0)
		return func(n int) {
			for i := 0; i < n; i++ {
				id++
				if c.NewOrder(id, 1, market.Side(id&1), 10000, 100) != nil {
					panic("bench: gateway rung not logged on")
				}
				sched.Run()
			}
			if uint64(acks) != id {
				panic("bench: gateway rung lost acks")
			}
		}
	}},

	{"redundancy.fec_send_recv", 300_000, func() func(int) {
		tx := redundancy.NewSender(nil, redundancy.DefaultSenderConfig())
		rx := redundancy.NewReceiver(redundancy.DefaultReceiverConfig())
		tx.Apply(redundancy.ParityFEC)
		rx.Apply(redundancy.ParityFEC)
		tx.Emit = func(b []byte) { rx.Consume(b) }
		delivered := 0
		rx.Deliver = func([]byte, bool) { delivered++ }
		payload := make([]byte, 100)
		return func(n int) {
			before := delivered
			for i := 0; i < n; i++ {
				tx.Send(payload)
			}
			if delivered-before != n {
				panic("bench: fec rung lost datagrams")
			}
		}
	}},
	{"replication.journal_apply", 2_000_000, func() func(int) {
		var fo replication.Follower
		applied := 0
		fo.Apply = func(*replication.Record) { applied++ }
		jr := replication.NewJournal(func(b []byte) {
			if fo.Receive(b) != nil {
				panic("bench: journal rung saw a sequence gap")
			}
		})
		return func(n int) {
			for i := 0; i < n; i++ {
				jr.Op(3, replication.OpNew, uint64(i), 1, market.Buy, 10000, 100)
			}
		}
	}},

	// The three SmallScenario plants every chaos-small seed builds first.
	{"core.build_small", 60, func() func(int) {
		sc := core.SmallScenario()
		lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
		return func(n int) {
			for i := 0; i < n; i++ {
				core.NewDesign1(sc, device.DefaultCommodityConfig())
				core.NewDesign2(sc, lats, true)
				core.NewDesign3(sc, 0)
			}
		}
	}},
}
