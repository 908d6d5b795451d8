package core

import (
	"fmt"

	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/feed"
	"tradenet/internal/firm"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// StaleQuoteRow is one quoter-latency level.
type StaleQuoteRow struct {
	DecisionLatency sim.Duration
	Moves           int
	StaleFills      uint64
	Reprices        uint64
}

// RunStaleQuotes is the paper's central claim, quantified: "the most
// important requirement is to be fast — the likelihood that an order will
// be profitable rapidly decays as the market data it was based on becomes
// stale ... exchanges will continue matching with an old order's price
// until it is updated, making trades that are no longer desired" (§1–§2).
// A market maker repricing with latency L races aggressors reacting to the
// same move; every race it loses is a fill at a price it no longer wants.
//
// It sweeps the quoter's decision latency against a fixed
// aggressor: the market mid jumps, and aggressorDelay later a taker lifts
// the quoter's (possibly stale) ask. Fast quoters win the race and reprice
// away; slow quoters get picked off.
func RunStaleQuotes(latencies []sim.Duration, moves int, aggressorDelay sim.Duration, seed int64) Sweep[StaleQuoteRow] {
	out := Sweep[StaleQuoteRow]{head: "Cost of latency (§1/§2): slow reprices get picked off\n", cols: staleQuoteCols,
		tail: "a quoter that reprices faster than the aggressor reacts escapes; every\n" +
			"race lost is a fill at a price the market has already left behind.\n"}
	for _, lat := range latencies {
		row := StaleQuoteRow{DecisionLatency: lat, Moves: moves}
		row.StaleFills, row.Reprices = runStaleRace(lat, moves, aggressorDelay, seed)
		out.Rows = append(out.Rows, row)
	}
	return out
}

func runStaleRace(decision sim.Duration, moves int, aggressorDelay sim.Duration, seed int64) (staleFills, reprices uint64) {
	sched := sim.NewScheduler(seed)
	u := buildUniverse(4)
	aapl := market.SymbolID(1)

	rawMap := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	outMap := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByHash, 8), mcast.NewAllocator(2))
	ex := exchange.New(sched, u, rawMap, exchange.Config{
		ID: 1, Name: "EXCH", Variant: feed.ExchangeB, MatchLatency: sim.Microsecond, HostID: 100,
	})
	norm := firm.NewNormalizer(sched, u, "norm", 200, feed.ExchangeB, rawMap, outMap,
		firm.NormalizerConfig{ProcLatency: sim.Microsecond})
	q := firm.NewQuoter(sched, u, "quoter", 300, outMap, firm.QuoterConfig{
		Symbol: aapl, HalfSpread: 50, Size: 100, DecisionLatency: decision,
	})
	gw := firm.NewGateway(sched, "gw", 400, firm.GatewayConfig{TranslateLatency: sim.Microsecond})

	link := func(a, b *netsim.NIC) { netsim.Connect(a.Port, b.Port, units.Rate10G, 200*sim.Nanosecond) }
	link(ex.MDNIC(), norm.RawNIC())
	link(norm.PubNIC(), q.MDNIC())
	link(gw.ExNIC(), ex.OENIC())

	// Order-side switch: quoter, driver, gateway.
	sw := device.NewCommoditySwitch(sched, "swOE", 3, device.DefaultCommodityConfig())
	drvHost := netsim.NewHost(sched, "driver")
	drvNIC := drvHost.AddNIC("oe", 500)
	netsim.Connect(sw.Port(0), q.OENIC().Port, units.Rate10G, 200*sim.Nanosecond)
	netsim.Connect(sw.Port(1), drvNIC.Port, units.Rate10G, 200*sim.Nanosecond)
	netsim.Connect(sw.Port(2), gw.InNIC().Port, units.Rate10G, 200*sim.Nanosecond)
	sw.Learn(q.OENIC().MAC, 0)
	sw.Learn(drvNIC.MAC, 1)
	sw.Learn(gw.InNIC().MAC, 2)

	_, exPort := ex.AcceptSession(gw.ExNIC().Addr(41000))
	gw.ConnectExchange(41000, ex.OENIC().Addr(exPort))
	gwPort := gw.AcceptStrategy(q.OENIC().Addr(42000))
	q.ConnectGateway(42000, gw.InNIC().Addr(gwPort))

	drvGwPort := gw.AcceptStrategy(drvNIC.Addr(43000))
	mux := netsim.NewStreamMux(drvNIC)
	ds := netsim.NewStream(drvNIC, 43000, gw.InNIC().Addr(drvGwPort))
	mux.Register(ds)
	driver := orderentry.NewClientSession(func(b []byte) { ds.Write(b) })
	ds.OnData = func(b []byte) { driver.Receive(b) }
	driver.Logon()

	// Establish the market, then run `moves` races. Each round the mid
	// steps up 100 in two stages: first the driver lifts its *ask* (moving
	// away — no crossing — but signalling the move on the feed), then
	// aggressorDelay later it lifts its *bid* to the quoter's old ask
	// price. If the quoter's reprice reached the exchange first, its ask
	// has moved away and nothing trades; if not, the stale ask is hit.
	mid0 := market.Price(10_050)
	sched.After(sim.Millisecond, func() {
		driver.NewOrder(1, aapl, market.Buy, mid0-50, 5000)
		driver.NewOrder(2, aapl, market.Sell, mid0+50, 5000)
	})
	for i := 0; i < moves; i++ {
		at := sim.Time(10*sim.Millisecond) + sim.Time(i)*sim.Time(5*sim.Millisecond)
		newMid := mid0 + market.Price(100*(i+1))
		sched.At(at, func() {
			driver.Modify(2, newMid+50, 5000) // ask steps away: the signal
		})
		sched.At(at.Add(aggressorDelay), func() {
			driver.Modify(1, newMid-50, 5000) // bid steps onto the old ask
		})
	}
	sched.Run()
	return q.Fills, q.Reprices
}

var staleQuoteCols = []column[StaleQuoteRow]{
	{"decision latency", func(r StaleQuoteRow) any { return r.DecisionLatency }},
	{"mid moves", func(r StaleQuoteRow) any { return r.Moves }},
	{"picked off", func(r StaleQuoteRow) any { return r.StaleFills }},
	{"rate", func(r StaleQuoteRow) any { return fmt.Sprintf("%.0f%%", float64(r.StaleFills)/float64(r.Moves)*100) }},
}
