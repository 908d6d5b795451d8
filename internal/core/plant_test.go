package core

import (
	"fmt"
	"reflect"
	"testing"

	"tradenet/internal/device"
	"tradenet/internal/orderentry"
	"tradenet/internal/sim"
)

// TestPullOnGapHonouredOnL1S: Scenario.PullOnGap reaches the strategies of
// every plant, not only Design 1's. The L1S circuit out of normalizer 1 goes
// dark in the middle of a burst and is repaired before the next one, so its
// strategies see a sequence gap on the normalized feed and must pull.
func TestPullOnGapHonouredOnL1S(t *testing.T) {
	sc := SmallScenario()
	sc.PullOnGap = true
	d := NewDesign3(sc, 0)

	const bursts, spacing = 6, 2 * sim.Millisecond
	start := sim.Time(5 * sim.Millisecond)
	d.publishBursts(bursts, sc.BurstMessages/bursts, start, spacing, nil)
	// Normalizer pub NICs are the first sources attached to network 2, so
	// normalizer i feeds input port i. Burst 2's normalized frames start
	// leaving ~2.2 µs after the publish (L1S hop + the 2 µs function): at
	// +2.5 µs the first few are through and the rest die in the switch.
	f := d.Fabric
	failAt := start.Add(2*spacing + 2500*sim.Nanosecond)
	// Clearing the circuit darkens the path; reinstalling the fan-out the
	// fabric recorded repairs it.
	d.Sched.At(failAt, func() { f.NormToStrat.Circuit(1) })
	d.Sched.At(failAt.Add(sim.Millisecond), func() { f.NormToStrat.Circuit(1, f.Circuits(f.NormToStrat)[1]...) })
	d.Sched.Run()
	if lost := f.NormToStrat.NoRoute; lost == 0 || lost >= uint64(sc.BurstMessages/bursts) {
		t.Fatalf("the fault was meant to split burst 2; %d frames died in the dark circuit", lost)
	}

	var gaps, pulls uint64
	for _, s := range d.Strats {
		gaps += s.GapsSeen
		pulls += s.QuotePulls
	}
	if gaps == 0 {
		t.Fatal("the dark circuit produced no sequence gap at any strategy: the fault missed the burst")
	}
	if pulls == 0 {
		t.Errorf("strategies saw %d gaps with PullOnGap set and pulled nothing", gaps)
	}
}

// TestLayerMatrix builds every design with every combination of the four
// opt-in layers through the one attach path, runs two bursts, and checks that
// the plant trades and stays sane: orders accepted, no client overfilled, no
// crossed book. The all-off cell must measure exactly what the plain
// constructor does.
func TestLayerMatrix(t *testing.T) {
	for mask := 0; mask < 16; mask++ {
		sc := SmallScenario()
		sc.OEResilience = mask&1 != 0
		sc.WANRedundancy = mask&2 != 0
		sc.ExchangeHA = mask&4 != 0
		if mask&8 != 0 {
			sc.Telemetry = &TelemetrySpec{}
		}
		for n, build := range StandardDesigns(sc) {
			t.Run(fmt.Sprintf("design%d/oe=%v,wan=%v,ha=%v,tel=%v", n+1,
				sc.OEResilience, sc.WANRedundancy, sc.ExchangeHA, sc.Telemetry != nil), func(t *testing.T) {
				p := build()
				orders := 0
				p.Ex.OnOrderAccepted = func(*orderentry.Msg, sim.Time) { orders++ }
				start := sim.Time(5 * sim.Millisecond)
				p.publishBursts(2, sc.BurstMessages/2, start, 2*sim.Millisecond, nil)
				// Liveness timers re-arm forever: bound the run by deadline.
				p.Sched.RunUntil(start.Add(6 * sim.Millisecond))

				if orders == 0 {
					t.Error("no order accepted: the plant is not trading")
				}
				for i, c := range p.Clients() {
					if c.Overfills != 0 {
						t.Errorf("client %d overfilled %d times", i, c.Overfills)
					}
				}
				for _, ins := range p.U.All() {
					q := p.Ex.Book(ins.ID).BBO()
					if q.Bid.Size > 0 && q.Ask.Size > 0 && q.Bid.Price >= q.Ask.Price {
						t.Errorf("%s crossed: bid %d >= ask %d", ins.Ticker, q.Bid.Price, q.Ask.Price)
					}
				}
				if (p.WANFeed != nil) != sc.WANRedundancy || (p.HA != nil) != sc.ExchangeHA || (p.Tel != nil) != (sc.Telemetry != nil) {
					t.Errorf("layers built (wan=%v ha=%v tel=%v) are not the layers asked for",
						p.WANFeed != nil, p.HA != nil, p.Tel != nil)
				}
			})
		}
	}

	sc := SmallScenario()
	zones := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
	plain := []RoundTrip{
		NewDesign1(sc, device.DefaultCommodityConfig()).MeasureRoundTrip(4),
		NewDesign2(sc, zones, true).MeasureRoundTrip(4),
		NewDesign3(sc, 0).MeasureRoundTrip(4),
	}
	for n, build := range StandardDesigns(sc) {
		if got := build().MeasureRoundTrip(4); !reflect.DeepEqual(got, plain[n]) {
			t.Errorf("design %d: all-off StandardDesigns plant measures %v orders mean %v, plain constructor %v mean %v",
				n+1, got.Orders, got.Mean(), plain[n].Orders, plain[n].Mean())
		}
	}
}
