package core

import (
	"testing"

	"tradenet/internal/device"
	"tradenet/internal/feed"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

func TestScenarioShapes(t *testing.T) {
	p := PaperScenario()
	if p.Servers() < 950 || p.Servers() > 1050 {
		t.Fatalf("paper scenario servers = %d, want ~1000", p.Servers())
	}
	if p.FnLatency >= 2*sim.Microsecond+1 {
		t.Fatal("software functions must be ≤2µs")
	}
	s := SmallScenario()
	if s.Servers() >= p.Servers() {
		t.Fatal("small scenario should be smaller")
	}
}

func TestBuildUniverse(t *testing.T) {
	u := buildUniverse(30)
	if u.Len() != 30 {
		t.Fatalf("len = %d", u.Len())
	}
	// Tickers span multiple first letters for ByAlpha partitioning.
	letters := map[byte]bool{}
	for _, in := range u.All() {
		letters[in.Ticker[0]] = true
	}
	if len(letters) < 20 {
		t.Fatalf("letter diversity = %d", len(letters))
	}
}

func TestSubscriptionSlice(t *testing.T) {
	subs := subscriptionSlice(0, 64)
	if len(subs) != 16 {
		t.Fatalf("window = %d, want 16 (a quarter)", len(subs))
	}
	for _, p := range subs {
		if p < 0 || p >= 64 {
			t.Fatalf("partition %d out of range", p)
		}
	}
	if len(subscriptionSlice(5, 2)) != 1 {
		t.Fatal("tiny partition count should give 1")
	}
}

func TestDesign1RoundTripShape(t *testing.T) {
	d := NewDesign1(SmallScenario(), device.DefaultCommodityConfig())
	rt := d.MeasureRoundTrip(4)
	if rt.Orders == 0 || len(rt.Samples) == 0 {
		t.Fatal("no orders completed the loop")
	}
	if rt.SwitchHops != 12 || rt.SoftwareHops != 3 {
		t.Fatalf("hops = %d/%d", rt.SwitchHops, rt.SoftwareHops)
	}
	mean := rt.Mean()
	// Floor: 3 software hops (6µs) + 12 switch hops (6µs).
	if mean < 11*sim.Microsecond {
		t.Fatalf("mean RT = %v, below physical floor", mean)
	}
	if mean > 500*sim.Microsecond {
		t.Fatalf("mean RT = %v, implausibly slow", mean)
	}
	// §4.1's punchline: network is roughly half the total.
	share := rt.NetworkShare()
	if share < 0.35 || share > 0.75 {
		t.Fatalf("network share = %.2f, want ≈0.5", share)
	}
}

func TestDesign3RoundTripBeatsDesign1(t *testing.T) {
	sc := SmallScenario()
	d1 := NewDesign1(sc, device.DefaultCommodityConfig())
	rt1 := d1.MeasureRoundTrip(4)
	d3 := NewDesign3(sc, 0)
	rt3 := d3.MeasureRoundTrip(4)
	if rt3.Orders == 0 {
		t.Fatal("design 3 completed no orders")
	}
	if rt3.Mean() >= rt1.Mean() {
		t.Fatalf("L1S (%v) should beat leaf-spine (%v)", rt3.Mean(), rt1.Mean())
	}
	// The network component should be ~2 orders of magnitude smaller
	// (§4.3); serialization is common to both, so compare network time.
	n1, n3 := rt1.NetworkTime(), rt3.NetworkTime()
	if n3 <= 0 || n1 <= 0 {
		t.Fatalf("network times: %v vs %v", n1, n3)
	}
	ratio := float64(n1) / float64(n3)
	if ratio < 3 {
		t.Fatalf("network-time ratio = %.1f, L1S should be far faster", ratio)
	}
}

func TestDesign3MergeAccounting(t *testing.T) {
	sc := SmallScenario()
	d := NewDesign3(sc, 0)
	merges := mergePorts(d)
	// Strategies' partitions span both normalizers → their single NICs are
	// merge outputs; gateways and the exchange port merge many sources.
	if merges["norm-strat"] == 0 {
		t.Fatalf("expected merge ports on norm-strat: %v", merges)
	}
	if merges["gw-ex"] == 0 {
		t.Fatalf("expected merge on gw-ex: %v", merges)
	}
	// Subscription caps eliminate merging at the cost of partitions.
	dCapped := NewDesign3(sc, 1)
	capped := mergePorts(dCapped)
	if capped["norm-strat"] != 0 {
		t.Fatalf("maxSubs=1 should remove norm-strat merges: %v", capped)
	}
	for _, subs := range dCapped.NormSubs {
		if len(subs) > 1 {
			t.Fatal("cap violated")
		}
	}
}

func TestDesign2EqualizationFairness(t *testing.T) {
	sc := SmallScenario()
	lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}

	dEq := NewDesign2(sc, lats, true)
	skewEq := recordSkew(dEq)
	rtEq := dEq.MeasureRoundTrip(4)
	maxSkew, samples := skewEq()
	if samples == 0 {
		t.Fatal("no skew samples")
	}
	if maxSkew != 0 {
		t.Fatalf("equalized skew = %v, want 0", maxSkew)
	}

	dRaw := NewDesign2(sc, lats, false)
	skewRaw := recordSkew(dRaw)
	rtRaw := dRaw.MeasureRoundTrip(4)
	rawSkew, _ := skewRaw()
	if rawSkew != 15*sim.Microsecond {
		t.Fatalf("unequalized skew = %v, want 15µs (20-5)", rawSkew)
	}
	// Fairness costs latency: the equalized plant is slower.
	if rtEq.Orders == 0 || rtRaw.Orders == 0 {
		t.Fatal("cloud designs completed no orders")
	}
	if rtEq.Mean() <= rtRaw.Mean() {
		t.Fatalf("equalized (%v) should be slower than raw (%v)", rtEq.Mean(), rtRaw.Mean())
	}
	// Cloud base latency dominates: round trips are tens of µs up.
	if rtEq.Mean() < 100*sim.Microsecond {
		t.Fatalf("equalized cloud RT = %v, should reflect 2×(50µs+20µs) fabric", rtEq.Mean())
	}
}

func TestDesignsAreDeterministic(t *testing.T) {
	sc := SmallScenario()
	a := NewDesign1(sc, device.DefaultCommodityConfig()).MeasureRoundTrip(3)
	b := NewDesign1(sc, device.DefaultCommodityConfig()).MeasureRoundTrip(3)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
}

// mergePorts reports how many merge outputs each of the four networks has.
func mergePorts(d *Design3) map[string]int {
	count := func(sw interface{ IsMergeOutput(int) bool }, n int) int {
		c := 0
		for i := 0; i < n; i++ {
			if sw.IsMergeOutput(i) {
				c++
			}
		}
		return c
	}
	n := d.Fabric.Config().Ports
	return map[string]int{
		"ex-norm":    count(d.Fabric.ExToNorm, n),
		"norm-strat": count(d.Fabric.NormToStrat, n),
		"strat-gw":   count(d.Fabric.StratToGw, n),
		"gw-ex":      count(d.Fabric.GwToEx, n),
	}
}

// recordSkew wraps every tenant's market-data handler to record when each
// feed datagram (unit, sequence) reaches it, and returns a summary of
// cross-tenant delivery skew: for every datagram seen by at least two
// tenants, max arrival minus min arrival.
func recordSkew(d *Design2) func() (maxSkew sim.Duration, samples int) {
	type dgramID struct {
		unit uint8
		seq  uint32
	}
	// arrivals[id][tenant]; the zero Time means "not delivered to this
	// tenant" (nothing arrives at t=0 — every path charges positive latency).
	arrivals := map[dgramID][]sim.Time{}
	for i, s := range d.Strats {
		inner := s.MDNIC().OnFrame
		s.MDNIC().OnFrame = func(n *netsim.NIC, f *netsim.Frame) {
			var uf pkt.UDPFrame
			var h feed.UnitHeader
			if pkt.ParseUDPFrame(f.Data, &uf) == nil {
				if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err == nil {
					id := dgramID{h.Unit, h.Seq}
					if arrivals[id] == nil {
						arrivals[id] = make([]sim.Time, len(d.Strats))
					}
					arrivals[id][i] = d.Sched.Now()
				}
			}
			inner(n, f)
		}
	}
	return func() (maxSkew sim.Duration, samples int) {
		for _, byTenant := range arrivals {
			var lo, hi sim.Time
			n := 0
			for _, at := range byTenant {
				if at == 0 {
					continue
				}
				if n == 0 || at < lo {
					lo = at
				}
				if n == 0 || at > hi {
					hi = at
				}
				n++
			}
			if n < 2 {
				continue
			}
			samples++
			maxSkew = max(maxSkew, hi.Sub(lo))
		}
		return maxSkew, samples
	}
}

// TestOneCopyOfEachFeedDatagram: in every design, a strategy receives each
// internal-feed datagram it subscribes to from one publisher only — the
// normalizers divide the partitions instead of each publishing all of them,
// so no reassembler drops a second copy.
func TestOneCopyOfEachFeedDatagram(t *testing.T) {
	for n, build := range StandardDesigns(SmallScenario()) {
		p := build()
		p.MeasureRoundTrip(4)
		for i, s := range p.Strats {
			if s.MsgsIn == 0 {
				t.Fatalf("design %d: strategy %d received no messages", n+1, i)
			}
			if s.Duplicates != 0 {
				t.Errorf("design %d: strategy %d dropped %d duplicate datagrams", n+1, i, s.Duplicates)
			}
		}
	}
}
