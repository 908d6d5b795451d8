package firm

import (
	"testing"

	"tradenet/internal/exchange"
	"tradenet/internal/feed"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

func testUniverse() *market.Universe {
	u := market.NewUniverse()
	u.Add("AAPL", market.Equity, 0)
	u.Add("MSFT", market.Equity, 0)
	u.Add("ZTS", market.Equity, 0)
	return u
}

// plant wires a complete single-exchange pipeline over direct links:
// exchange --md--> normalizer --normalized--> strategy --orders--> gateway
// --exchange protocol--> exchange.
type plant struct {
	sched *sim.Scheduler
	u     *market.Universe
	ex    *exchange.Exchange
	norm  *Normalizer
	strat *Strategy
	gw    *Gateway
}

func buildPlant(t *testing.T, normCfg NormalizerConfig, stratCfg StrategyConfig) *plant {
	t.Helper()
	p := &plant{sched: sim.NewScheduler(31), u: testUniverse()}

	rawMap := mcast.NewMap(mcast.NewPartitioner(p.u, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	outMap := mcast.NewMap(mcast.NewPartitioner(p.u, mcast.ByHash, 8), mcast.NewAllocator(2))

	p.ex = exchange.New(p.sched, p.u, rawMap, exchange.Config{
		ID: 1, Name: "EXCH", Variant: feed.ExchangeB,
		MatchLatency: sim.Microsecond, HostID: 100,
	})
	p.norm = NewNormalizer(p.sched, p.u, "norm1", 200, feed.ExchangeB, rawMap, outMap, normCfg)
	p.strat = NewStrategy(p.sched, p.u, "strat1", 300, outMap, stratCfg)
	p.gw = NewGateway(p.sched, "gw1", 400, GatewayConfig{TranslateLatency: sim.Microsecond})

	link := func(a, b *netsim.NIC) { netsim.Connect(a.Port, b.Port, units.Rate10G, 200*sim.Nanosecond) }
	link(p.ex.MDNIC(), p.norm.RawNIC())
	link(p.norm.PubNIC(), p.strat.MDNIC())
	link(p.strat.OENIC(), p.gw.InNIC())
	link(p.gw.ExNIC(), p.ex.OENIC())
	return p
}

func TestNormalizerConvertsAndRepartitions(t *testing.T) {
	p := buildPlant(t, NormalizerConfig{ProcLatency: sim.Microsecond}, StrategyConfig{})
	// Drive raw feed without the matching engine.
	p.sched.At(0, func() {
		rng := p.sched.Rand()
		p.ex.PublishBurst(rng, 200)
	})
	p.sched.Run()
	if p.norm.MsgsIn != 200 {
		t.Fatalf("normalizer in = %d", p.norm.MsgsIn)
	}
	if p.norm.MsgsOut != 200 {
		t.Fatalf("normalizer out = %d", p.norm.MsgsOut)
	}
	// The strategy subscribed to all 8 internal partitions sees everything.
	if p.strat.MsgsIn != 200 {
		t.Fatalf("strategy in = %d", p.strat.MsgsIn)
	}
}

func TestStrategySubscriptionSubset(t *testing.T) {
	stratCfg := StrategyConfig{Subscriptions: []int{0, 1, 2}}
	p := buildPlant(t, NormalizerConfig{ProcLatency: sim.Microsecond}, stratCfg)
	p.sched.At(0, func() { p.ex.PublishBurst(p.sched.Rand(), 400) })
	p.sched.Run()
	if p.strat.MDNIC().Subscriptions() != 3 {
		t.Fatalf("subscriptions = %d", p.strat.MDNIC().Subscriptions())
	}
	if p.strat.MsgsIn == 0 || p.strat.MsgsIn >= p.norm.MsgsOut {
		t.Fatalf("subset subscriber saw %d of %d", p.strat.MsgsIn, p.norm.MsgsOut)
	}
	// NIC-level filtering did the discarding.
	if p.strat.MDNIC().Filtered == 0 {
		t.Fatal("expected NIC filtering of unjoined partitions")
	}
}

func TestEndToEndTickToTrade(t *testing.T) {
	p := buildPlant(t,
		NormalizerConfig{ProcLatency: sim.Microsecond},
		StrategyConfig{DecisionLatency: sim.Microsecond})

	// Wire the order path: strategy → gateway → exchange.
	exPortSess := func() uint16 {
		_, port := p.ex.AcceptSession(p.gw.ExNIC().Addr(41000))
		return port
	}()
	p.gw.ConnectExchange(41000, p.ex.OENIC().Addr(exPortSess))
	gwPort := p.gw.AcceptStrategy(p.strat.OENIC().Addr(42000))
	p.strat.ConnectGateway(42000, p.gw.InNIC().Addr(gwPort))

	// Let the logons complete, then move the market: a burst of adds, some
	// of which strictly improve a bid and trigger the strategy.
	p.sched.After(sim.Millisecond, func() {
		p.ex.PublishBurst(p.sched.Rand(), 50)
	})
	p.sched.Run()

	if !p.strat.Session().LoggedOn() {
		t.Fatal("strategy session not logged on")
	}
	if p.strat.OrdersSent == 0 {
		t.Fatal("strategy never fired")
	}
	if p.gw.Relayed == 0 {
		t.Fatal("gateway relayed nothing")
	}
	// The strategy's orders reached the real engine: acks flowed back and
	// the exchange book shows resting strategy orders.
	if p.gw.Responses == 0 {
		t.Fatal("no exchange responses relayed back")
	}
}

func TestGatewayTranslatesIDsBothWays(t *testing.T) {
	p := buildPlant(t,
		NormalizerConfig{ProcLatency: sim.Microsecond},
		StrategyConfig{DecisionLatency: sim.Microsecond})
	_, exPort := p.ex.AcceptSession(p.gw.ExNIC().Addr(41000))
	p.gw.ConnectExchange(41000, p.ex.OENIC().Addr(exPort))
	gwPort := p.gw.AcceptStrategy(p.strat.OENIC().Addr(42000))
	p.strat.ConnectGateway(42000, p.gw.InNIC().Addr(gwPort))

	// The strategy reacts to these orders echoing back on the feed with
	// orders of its own, numbered from 1; the test's ids start far above
	// them, and only acks of the test's own ids are kept.
	const mine = 1_000_000
	var acked []uint64
	p.sched.After(sim.Millisecond, func() {
		p.strat.Session().OnAck = func(id uint64) {
			if id >= mine {
				acked = append(acked, id)
			}
		}
		aapl, _ := p.u.Lookup("AAPL")
		p.strat.Session().NewOrder(mine+7, aapl, market.Buy, 1000000, 10)
		p.strat.Session().NewOrder(mine+8, aapl, market.Buy, 999000, 10)
	})
	p.sched.Run()
	if len(acked) != 2 || acked[0] != mine+7 || acked[1] != mine+8 {
		t.Fatalf("acked = %v (internal ids must round-trip)", acked)
	}
	// Cancel via the gateway: internal id mine+7 maps to the right
	// exchange order.
	var cancelOK bool
	p.sched.After(0, func() {
		p.strat.Session().OnCancelAck = func(id uint64) { cancelOK = id == mine+7 }
		p.strat.Session().Cancel(mine + 7)
	})
	p.sched.Run()
	if !cancelOK {
		t.Fatal("cancel id translation failed")
	}
	// Cancel of never-sent id is rejected locally by the gateway.
	var rejected bool
	p.sched.After(0, func() {
		p.strat.Session().OnCancelReject = func(id uint64) { rejected = id == 99 }
		p.strat.Session().Cancel(99)
	})
	p.sched.Run()
	if !rejected {
		t.Fatal("unknown cancel should be rejected")
	}
}

func TestNormalizerPreservesOriginTimestamps(t *testing.T) {
	p := buildPlant(t, NormalizerConfig{ProcLatency: 2 * sim.Microsecond}, StrategyConfig{})
	var origins []sim.Time
	var arrivals []sim.Time
	orig := p.strat.MDNIC().OnFrame
	p.strat.MDNIC().OnFrame = func(n *netsim.NIC, f *netsim.Frame) {
		origins = append(origins, f.Origin)
		arrivals = append(arrivals, p.sched.Now())
		orig(n, f)
	}
	// Publish away from t=0: a zero Origin is indistinguishable from
	// "unset" and would be restamped downstream.
	p.sched.After(sim.Millisecond, func() { p.ex.PublishBurst(p.sched.Rand(), 20) })
	p.sched.Run()
	if len(origins) == 0 {
		t.Fatal("nothing arrived")
	}
	for i := range origins {
		e2e := arrivals[i].Sub(origins[i])
		// End-to-end includes the 2µs normalizer hop: must exceed it.
		if e2e < 2*sim.Microsecond {
			t.Fatalf("end-to-end %v too small to include normalizer", e2e)
		}
		if e2e > 100*sim.Microsecond {
			t.Fatalf("end-to-end %v implausibly large", e2e)
		}
	}
}

func TestFirmAccessors(t *testing.T) {
	p := buildPlant(t, NormalizerConfig{}, StrategyConfig{})
	if p.norm.OutMap() == nil {
		t.Fatal("normalizer OutMap")
	}
	if p.gw.ExchangeSession() != nil {
		t.Fatal("exchange session should be nil before connect")
	}
	_, exPort := p.ex.AcceptSession(p.gw.ExNIC().Addr(41000))
	p.gw.ConnectExchange(41000, p.ex.OENIC().Addr(exPort))
	p.sched.Run()
	if p.gw.ExchangeSession() == nil || !p.gw.ExchangeSession().LoggedOn() {
		t.Fatal("exchange session after connect")
	}
}
