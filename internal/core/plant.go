package core

import (
	"fmt"

	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/fault"
	"tradenet/internal/feed"
	"tradenet/internal/firm"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// Plant is §4's common scenario — one exchange, the firm's normalizers,
// strategies and gateways, and whichever opt-in layers the Scenario arms —
// built once by build and wired onto one of the three fabrics. Design1/2/3
// embed it next to their fabric handle; everything an experiment does to
// "a design" it does to a Plant.
type Plant struct {
	Scenario Scenario
	Name     string // display name, e.g. "Design 1 (leaf-spine)"
	Sched    *sim.Scheduler
	U        *market.Universe
	Ex       *exchange.Exchange
	Norms    []*firm.Normalizer // empty in the cloud plant
	Strats   []*firm.Strategy
	Gws      []*firm.Gateway // empty in the cloud plant

	// ExSessions[i] is the exchange's side of client i's order-entry session
	// (client i is gateway i, or tenant i in the cloud plant) — the handle
	// failover experiments use to inspect ownership and working-order state.
	ExSessions []*orderentry.ExchangeSession

	RawMap *mcast.Map // nil in the cloud plant: its exchange publishes OutMap
	OutMap *mcast.Map

	// The opt-in layers, nil unless the Scenario knob of the same name is set.
	WANFeed *WANFeed
	HA      *HACluster // HA.Backup is the dark standby
	Tel     *Telemetry

	fab fabric
	rt  RoundTrip // MeasureRoundTrip's template: name, hop counts, known costs
}

// fabric is what differs between the designs: where the NICs go. build calls
// it at build time only; nothing on a frame's path crosses it.
type fabric interface {
	// place attaches every NIC of the plant's exchange, normalizers,
	// strategies and gateways and programs the joins or circuits between
	// them, in the design's own attach order.
	place()
	// attachStandby attaches the two NICs of the hot-standby exchange
	// (p.HA.Backup) so that clients and feed consumers can reach it once it
	// promotes.
	attachStandby(bak *exchange.Exchange)
	// loop reports the switch hops one trip around exchange → … → exchange
	// crosses and the total in-switch latency of those hops.
	loop() (hops int, latency sim.Duration)
}

// shape is what a design fixes about the common scenario before any
// component exists.
type shape struct {
	name string
	// tenants > 0 makes the cloud plant: the exchange publishes the internal
	// feed itself and that many strategies take all of it and hold their own
	// exchange sessions — no normalizer tier, no gateway tier.
	tenants int
}

// hostIDs: the exchange uses 100+, normalizers 1000+, strategies 10000+,
// gateways 50000+ — disjoint so derived MACs/IPs never collide.
const (
	idExchange   = 100
	idNormalizer = 1000
	idStrategy   = 10000
	idGateway    = 50000
)

// newPlant creates the scheduler and every component of the scenario,
// attached to nothing yet.
func newPlant(sc Scenario, sh shape) Plant {
	p := Plant{Scenario: sc, Name: sh.name, Sched: sim.NewScheduler(sc.Seed), U: buildUniverse(sc.Symbols)}
	p.OutMap = mcast.NewMap(mcast.NewPartitioner(p.U, mcast.ByHash, sc.InternalPartitions), mcast.NewAllocator(2))
	norms, strats, gws := sc.Normalizers, sc.Strategies, sc.Gateways
	if sh.tenants > 0 {
		norms, strats, gws = 0, sh.tenants, 0
	} else {
		p.RawMap = mcast.NewMap(mcast.NewPartitioner(p.U, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	}
	p.Ex = p.newExchange("", idExchange)

	for i := 0; i < norms; i++ {
		// Normalizer i publishes only the partitions p with p % norms == i:
		// the fleet divides the internal feed instead of each normalizer
		// publishing all of it, so a consumer gets every datagram once.
		cfg := firm.NormalizerConfig{ProcLatency: sc.FnLatency,
			PartitionOwned: func(part int) bool { return part%norms == i }}
		p.Norms = append(p.Norms, firm.NewNormalizer(p.Sched, p.U, fmt.Sprintf("norm%d", i), uint32(idNormalizer+2*i),
			feed.ExchangeB, p.RawMap, p.OutMap, cfg))
	}
	for i := 0; i < strats; i++ {
		// A tenant takes the full feed (fairness is only observable on data
		// everyone receives); a strategy behind normalizers takes its slice.
		name, subs := fmt.Sprintf("tenant%d", i), []int(nil)
		if !p.cloud() {
			name, subs = fmt.Sprintf("strat%d", i), subscriptionSlice(i, sc.InternalPartitions)
		}
		p.Strats = append(p.Strats, firm.NewStrategy(p.Sched, p.U, name, uint32(idStrategy+2*i), p.OutMap,
			firm.StrategyConfig{DecisionLatency: sc.FnLatency, Subscriptions: subs, PullOnGap: sc.PullOnGap}))
	}
	for i := 0; i < gws; i++ {
		p.Gws = append(p.Gws, firm.NewGateway(p.Sched, fmt.Sprintf("gw%d", i), uint32(idGateway+2*i),
			firm.GatewayConfig{TranslateLatency: sc.FnLatency}))
	}
	return p
}

// cloud reports whether this is the cloud plant: no normalizer or gateway
// tier, the exchange publishes the internal feed, tenants hold the sessions.
func (p *Plant) cloud() bool { return p.RawMap == nil }

// newExchange builds the venue, or with suffix "-B" its standby twin. Behind
// normalizers it publishes the raw exchange format; in the cloud plant it
// publishes the internal format directly.
func (p *Plant) newExchange(suffix string, hostID uint32) *exchange.Exchange {
	name, variant, pmap := "EXCH", feed.ExchangeB, p.RawMap
	if p.cloud() {
		name, variant, pmap = "CLOUD-EXCH", feed.Internal, p.OutMap
	}
	return exchange.New(p.Sched, p.U, pmap, exchange.Config{ID: 1, Name: name + suffix, Variant: variant, HostID: hostID})
}

// subscriptionSlice gives strategy i a contiguous window of 1/4 of the
// partitions ("some strategies only analyze a subset of the feed").
func subscriptionSlice(i, parts int) []int {
	w := max(parts/4, 1)
	subs := make([]int, w)
	for j := range subs {
		subs[j] = (i*w + j) % parts
	}
	return subs
}

// build wires the plant onto fab and applies the opt-in layers. This is the
// one place a layer is attached, and the order is load-bearing: the exchange
// must know its resilience parameters before it accepts a session; the
// standby must be journaling before the first session opens, or its session
// table starts behind the primary's; the WAN mirror taps an exchange that is
// otherwise complete; telemetry registers last so it sees every layer.
func (p *Plant) build(fab fabric) {
	sc := p.Scenario
	p.fab = fab
	fab.place()
	if sc.OEResilience {
		p.Ex.EnableResilience(oeExchangeResilience())
	}
	if sc.ExchangeHA {
		bak := p.newExchange("-B", idExchangeBak)
		if sc.OEResilience {
			bak.EnableResilience(oeExchangeResilience())
		}
		p.HA = NewHACluster(p.Sched, p.Ex, bak)
		fab.attachStandby(bak)
	}
	p.wireSessions()
	if sc.WANRedundancy {
		p.WANFeed = NewWANFeed(p.Sched, p.Ex)
	}
	if p.Tel = newTelemetry(p.Sched, sc.Telemetry); p.Tel != nil {
		reg := p.Tel.Reg
		reg.RegisterUint("exchange.published_dgrams", &p.Ex.Published)
		reg.RegisterUint("exchange.published_msgs", &p.Ex.PublishedMsgs)
		reg.RegisterUint("exchange.cancel_on_disconnect", &p.Ex.CancelOnDisconnect)
		reg.RegisterUint("exchange.sessions_dropped", &p.Ex.SessionsDropped)
		if p.HA != nil {
			p.HA.RegisterMetrics(reg)
		}
	}

	fns := 3 // normalizer, strategy, gateway
	if p.cloud() {
		fns = 1
	}
	hops, lat := fab.loop()
	p.rt = RoundTrip{Design: p.Name, SwitchHops: hops, SoftwareHops: fns,
		SoftwareTime: sim.Duration(fns) * sc.FnLatency, SwitchLatency: lat}
}

// wireSessions dials every order-entry session: gateways to the exchange and
// strategies to gateways, or — the cloud plant has no gateway tier — tenants
// straight to the exchange.
func (p *Plant) wireSessions() {
	harden := p.Scenario.OEResilience
	if p.cloud() {
		for i, s := range p.Strats {
			addr := s.OENIC().Addr(uint16(42000 + i))
			sess, exPort := p.Ex.AcceptSession(addr)
			p.ExSessions = append(p.ExSessions, sess)
			s.ConnectGateway(uint16(42000+i), p.Ex.OENIC().Addr(exPort))
			if harden {
				hardenTenant(s, p.reaccept(i, sess, addr))
			}
		}
		return
	}
	for i, g := range p.Gws {
		addr := g.ExNIC().Addr(uint16(41000 + i))
		sess, exPort := p.Ex.AcceptSession(addr)
		p.ExSessions = append(p.ExSessions, sess)
		g.ConnectExchange(uint16(41000+i), p.Ex.OENIC().Addr(exPort))
		if harden {
			hardenGateway(g, p.reaccept(i, sess, addr))
		}
	}
	for i, s := range p.Strats {
		g := p.Gws[i%len(p.Gws)]
		gwPort := g.AcceptStrategy(s.OENIC().Addr(uint16(42000 + i)))
		s.ConnectGateway(uint16(42000+i), g.InNIC().Addr(gwPort))
		if harden {
			hardenStrategyBehindGateway(s)
		}
	}
}

// reaccept is client i's redial: it provisions a replacement endpoint at the
// exchange and returns the address to dial. With an HA pair the cluster
// routes it to whichever venue is live, addressed by the session-table index
// both machines share, so after a failover the same closure lands the client
// on the promoted standby's twin session.
func (p *Plant) reaccept(i int, sess *orderentry.ExchangeSession, client pkt.UDPAddr) func() pkt.UDPAddr {
	if ha := p.HA; ha != nil {
		return func() pkt.UDPAddr { return ha.Reaccept(i, client) }
	}
	ex := p.Ex
	return func() pkt.UDPAddr { return ex.OENIC().Addr(ex.ReacceptSession(sess, client)) }
}

// Clients returns the firm's side of every exchange session, index-aligned
// with ExSessions.
func (p *Plant) Clients() []*orderentry.ClientSession {
	var cs []*orderentry.ClientSession
	for _, g := range p.Gws {
		cs = append(cs, g.ExchangeSession())
	}
	if p.cloud() {
		for _, s := range p.Strats {
			cs = append(cs, s.Session())
		}
	}
	return cs
}

// Victim is the endpoint session-kill experiments drop: client 0.
func (p *Plant) Victim() fault.SessionDropper {
	if p.cloud() {
		return p.Strats[0]
	}
	return p.Gws[0]
}

// publishBursts schedules n bursts of perBurst messages (at least one) from
// start, interval apart. before, if non-nil, runs at each burst instant ahead
// of the publish.
func (p *Plant) publishBursts(n, perBurst int, start sim.Time, interval sim.Duration, before func()) {
	perBurst = max(perBurst, 1)
	for b := 0; b < n; b++ {
		p.Sched.At(start.Add(sim.Duration(b)*interval), func() {
			if before != nil {
				before()
			}
			p.Ex.PublishBurst(p.Sched.Rand(), perBurst)
		})
	}
}

// MeasureRoundTrip publishes isolated market-data bursts and measures
// tick-to-trade at the exchange: order-accepted time minus burst publish
// time. After a settle-in period (logons) the bursts go out 2 ms apart — far
// enough that every accepted order belongs to the most recent one. A non-nil
// telemetry plane is armed over the whole span; nil costs one compare inside
// Arm and the schedule is untouched.
func (p *Plant) MeasureRoundTrip(bursts int) RoundTrip {
	rt := p.rt
	var burstAt sim.Time
	p.Ex.OnOrderAccepted = func(_ *orderentry.Msg, at sim.Time) {
		rt.Orders++
		rt.Samples = append(rt.Samples, at.Sub(burstAt))
	}
	const spacing = 2 * sim.Millisecond
	start := sim.Time(5 * sim.Millisecond) // let logons drain
	p.Tel.Arm(0, start.Add(sim.Duration(bursts)*spacing))
	p.publishBursts(bursts, p.Scenario.BurstMessages/max(bursts, 1), start, spacing, func() {
		burstAt = p.Sched.Now()
		rt.Bursts = append(rt.Bursts, burstAt)
	})
	p.Sched.Run()
	return rt
}

// StandardDesigns returns constructors for the three plants every
// cross-design experiment compares, indexed by design number − 1: Design 1 on
// current commodity switches, the equalized three-tenant cloud, and Design 3
// with uncapped normalizer subscriptions. Each call of a constructor builds a
// fresh plant, so a caller decides the order and how many are alive at once.
func StandardDesigns(sc Scenario) [3]func() *Plant {
	return [3]func() *Plant{
		func() *Plant { return &NewDesign1(sc, device.DefaultCommodityConfig()).Plant },
		func() *Plant {
			zones := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
			return &NewDesign2(sc, zones, true).Plant
		},
		func() *Plant { return &NewDesign3(sc, 0).Plant },
	}
}
