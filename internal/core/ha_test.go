package core

import (
	"slices"
	"strings"
	"testing"

	"tradenet/internal/device"
	"tradenet/internal/fault"
	"tradenet/internal/market"
	"tradenet/internal/metrics"
	"tradenet/internal/orderentry"
	"tradenet/internal/sim"
)

// TestHAFailoverPromotesAndRehomes drives Design 1 with the HA pair armed:
// market-data bursts get strategies trading against the primary, the
// primary process dies mid-run, the standby detects the journal silence and
// promotes, every gateway redials onto the promoted venue, and a
// post-failover burst trades against it — with every client's working-order
// view reconciling against the promoted book and zero duplicate executions.
func TestHAFailoverPromotesAndRehomes(t *testing.T) {
	sc := SmallScenario()
	sc.Seed = 11
	sc.OEResilience = true
	sc.ExchangeHA = true
	d := NewDesign1(sc, device.DefaultCommodityConfig())
	if d.HA == nil {
		t.Fatal("ExchangeHA set but no cluster built")
	}
	d.HA.Start()

	sched := d.Sched
	perBurst := sc.BurstMessages / 10
	burstStart := sim.Time(5 * sim.Millisecond)
	for b := 0; b < 3; b++ {
		sched.At(burstStart.Add(sim.Duration(b)*2*sim.Millisecond), func() {
			d.Ex.PublishBurst(sched.Rand(), perBurst)
		})
	}

	// Kill the primary between bursts; the watchdog should promote within
	// haDeadAfter plus one tick of slack.
	crashAt := sim.Time(10 * sim.Millisecond)
	plan := fault.NewPlan(sched)
	plan.ProcessFail(d.HA, crashAt)

	// Post-failover order flow: the strategies rest their pre-crash
	// inventory and won't re-trigger, so probe the re-homed path directly —
	// one scripted order per gateway session, ids in a range no
	// strategy-assigned id collides with, priced to rest. The promoted
	// venue must accept every one, and the promoted venue also publishes a
	// burst so the feed path is exercised end to end.
	var promotedOrders int
	sched.At(sim.Time(20*sim.Millisecond), func() {
		if !d.HA.Promoted() {
			t.Fatal("standby not promoted 10 ms after the crash")
		}
		d.HA.Active().OnOrderAccepted = func(*orderentry.Msg, sim.Time) { promotedOrders++ }
		sym := d.U.All()[0].ID
		for i, g := range d.Gws {
			if err := g.ExchangeSession().NewOrder(uint64(1)<<40|uint64(i+1), sym, market.Buy, 1, 1); err != nil {
				t.Fatalf("gateway %d post-failover order: %v", i, err)
			}
		}
		d.HA.Active().PublishBurst(sched.Rand(), perBurst)
	})
	sched.RunUntil(sim.Time(30 * sim.Millisecond))

	if !d.HA.Promoted() {
		t.Fatal("standby never promoted")
	}
	detect := d.HA.PromotedAt.Sub(crashAt)
	if detect <= 0 || detect > sim.Duration(2*sim.Millisecond) {
		t.Fatalf("promotion latency %v, want (0, 2ms]", detect)
	}
	if d.HA.Active() != d.HA.Backup {
		t.Fatal("Active() is not the promoted standby")
	}
	if promotedOrders < len(d.Gws) {
		t.Fatalf("promoted venue accepted %d/%d post-failover orders", promotedOrders, len(d.Gws))
	}
	for i, g := range d.Gws {
		if g.Reconnects == 0 {
			t.Fatalf("gateway %d never re-homed", i)
		}
	}
	// Every client's working-order view must equal the promoted venue's.
	bak := d.HA.Backup
	var overfills uint64
	for i, g := range d.Gws {
		cs := g.ExchangeSession()
		if !slices.Equal(bak.WorkingOrders(bak.SessionAt(i)), cs.OpenIDs()) {
			t.Fatalf("gateway %d: client view diverged from promoted book", i)
		}
		overfills += cs.Overfills
	}
	if overfills != 0 {
		t.Fatalf("%d overfills across failover", overfills)
	}
	if d.HA.Journal.Records == 0 || d.HA.Follower.Applied == 0 {
		t.Fatalf("journal never flowed: %d sent / %d applied",
			d.HA.Journal.Records, d.HA.Follower.Applied)
	}
	if d.HA.Follower.Applied > d.HA.Journal.Records {
		t.Fatalf("follower applied %d > journaled %d", d.HA.Follower.Applied, d.HA.Journal.Records)
	}
	log := d.HA.DecisionLog()
	if !strings.Contains(log, "crashed") || !strings.Contains(log, "promoted") {
		t.Fatalf("decision log incomplete:\n%s", log)
	}

	// The ha.* counters register and dump.
	reg := metrics.NewRegistry()
	d.HA.RegisterMetrics(reg)
	dump := reg.String()
	for _, name := range []string{"ha.journal.records", "ha.follower.applied", "ha.promotions"} {
		if !strings.Contains(dump, name) {
			t.Fatalf("registry dump missing %s:\n%s", name, dump)
		}
	}
}

// TestHAPassivePairIsDeterministic: the knob-on plant (cluster built, never
// started) is a pure function of the seed — two runs agree on every sample
// and on the journal volume — and the cloud design's standby ports do not
// perturb the measurement at all: knob-on samples equal knob-off samples.
func TestHAPassivePairIsDeterministic(t *testing.T) {
	sc := SmallScenario()
	sc.Seed = 5
	sc.ExchangeHA = true

	run := func() (RoundTrip, uint64) {
		d := NewDesign1(sc, device.DefaultCommodityConfig())
		rt := d.MeasureRoundTrip(8)
		return rt, d.HA.Journal.Records
	}
	rt1, j1 := run()
	rt2, j2 := run()
	if j1 == 0 || j1 != j2 {
		t.Fatalf("journal volume not deterministic: %d vs %d", j1, j2)
	}
	if len(rt1.Samples) == 0 || len(rt1.Samples) != len(rt2.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(rt1.Samples), len(rt2.Samples))
	}
	for i := range rt1.Samples {
		if rt1.Samples[i] != rt2.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, rt1.Samples[i], rt2.Samples[i])
		}
	}

	// Cloud design: the standby hangs off inert equalizer ports, so arming
	// the pair must not move a single sample against the knob-off plant.
	lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
	off := SmallScenario()
	off.Seed = 5
	on := off
	on.ExchangeHA = true
	rtOff := NewDesign2(off, lats, true).MeasureRoundTrip(8)
	rtOn := NewDesign2(on, lats, true).MeasureRoundTrip(8)
	if len(rtOff.Samples) != len(rtOn.Samples) {
		t.Fatalf("cloud sample counts differ: off %d, on %d", len(rtOff.Samples), len(rtOn.Samples))
	}
	for i := range rtOff.Samples {
		if rtOff.Samples[i] != rtOn.Samples[i] {
			t.Fatalf("cloud sample %d perturbed: off %v, on %v", i, rtOff.Samples[i], rtOn.Samples[i])
		}
	}
}
