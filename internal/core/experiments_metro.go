package core

import (
	"fmt"

	"tradenet/internal/colo"
	"tradenet/internal/firm"
	"tradenet/internal/market"
	"tradenet/internal/sim"
)

// MetroNBBOResult is the cross-colo surveillance study. §4.2's compliance
// rules (no locked/crossed markets, no trade-throughs) require aggregating
// quotes from exchanges tens of miles apart — but the aggregated view is
// skewed by propagation: Mahwah's quote is ~181 µs old by the time it
// reaches a Carteret surveillance host over microwave. When prices move,
// the stale mix transiently *appears* locked or crossed even though no
// exchange ever was. Faster WANs shrink, but cannot eliminate, this window
// — a physical limit on remote compliance checking.
type MetroNBBOResult struct {
	Horizon sim.Duration
	// ApparentLockedCrossed is the fraction of time the Carteret
	// surveillance view showed a locked or crossed market.
	MicrowaveShare float64
	FiberShare     float64
	// OracleShare is the same fraction for an impossible zero-latency
	// observer (0 by construction: no venue crosses itself).
	OracleShare float64
	// Transitions counts observed state changes on the microwave view.
	Transitions uint64
}

// RunMetroNBBO simulates one symbol quoted at three exchanges (Mahwah,
// Secaucus, Carteret) tracking a common random-walk price, observed by a
// surveillance host in Carteret over each WAN medium.
func RunMetroNBBO(horizon sim.Duration, seed int64) MetroNBBOResult {
	res := MetroNBBOResult{Horizon: horizon}
	res.MicrowaveShare, res.Transitions = runMetroView(horizon, seed, colo.DefaultMicrowave())
	res.FiberShare, _ = runMetroView(horizon, seed, colo.DefaultFiber())
	res.OracleShare, _ = runMetroView(horizon, seed, colo.CircuitConfig{Medium: colo.Microwave, RouteFactor: 1e-9, Bandwidth: colo.DefaultMicrowave().Bandwidth})
	return res
}

func runMetroView(horizon sim.Duration, seed int64, cfg colo.CircuitConfig) (share float64, transitions uint64) {
	sched := sim.NewScheduler(seed)
	sur := firm.NewSurveillance()
	const sym market.SymbolID = 1

	// Observation delays from each venue to the Carteret host.
	delay := map[market.ExchangeID]sim.Duration{
		1: colo.NewCircuit(sched, colo.Mahwah, colo.Carteret, cfg, discard, discard).Latency,
		2: colo.NewCircuit(sched, colo.Secaucus, colo.Carteret, cfg, discard, discard).Latency,
		3: 25 * sim.Nanosecond, // local cross-connect
	}

	// Time-weighted state accounting.
	var badTime sim.Duration
	lastChange := sim.Time(0)
	state := market.MarketNormal
	observe := func(ex market.ExchangeID, bbo market.BBO) {
		sur.Update(ex, sym, bbo)
		now := sched.Now()
		s := sur.State(sym)
		if s != state {
			transitions++
			if state != market.MarketNormal {
				badTime += now.Sub(lastChange)
			}
			state = s
			lastChange = now
		}
	}

	// A common efficient price that all venues track; each venue quotes
	// bid = p-1, ask = p+1, so no venue is ever locked at source.
	price := market.Price(10_000)
	rng := sched.Rand()
	var step func()
	step = func() {
		if rng.Intn(2) == 0 {
			price++
		} else {
			price--
		}
		for ex := market.ExchangeID(1); ex <= 3; ex++ {
			bbo := market.BBO{
				Bid: market.Quote{Price: price - 1, Size: 100},
				Ask: market.Quote{Price: price + 1, Size: 100},
			}
			ex := ex
			sched.After(delay[ex], func() { observe(ex, bbo) })
		}
		next := sched.Now().Add(sim.Duration(1+rng.Intn(200)) * sim.Microsecond)
		if next.Before(sim.Time(horizon)) {
			sched.At(next, step)
		}
	}
	sched.At(0, step)
	sched.Run()
	if state != market.MarketNormal {
		badTime += sched.Now().Sub(lastChange)
	}
	return float64(badTime) / float64(horizon), transitions
}

// String renders the skew study.
func (r MetroNBBOResult) String() string {
	return fmt.Sprintf(`Cross-colo NBBO skew (§4.2): one symbol, three venues, Carteret observer
  apparent locked/crossed share of time:
    zero-latency oracle:  %.2f%%   (no venue ever crossed at source)
    microwave WAN view:   %.2f%%   (%d state transitions)
    fiber WAN view:       %.2f%%
  propagation skew manufactures phantom lock/cross conditions; compliance
  must either tolerate them, co-locate surveillance per venue, or — the
  paper's point — run a network engineered for exactly this aggregation.
`, r.OracleShare*100, r.MicrowaveShare*100, r.Transitions, r.FiberShare*100)
}
