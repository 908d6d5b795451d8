package core

import (
	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/feed"
	"tradenet/internal/netsim"
	"tradenet/internal/sim"
	"tradenet/internal/topo"
)

// Design1 is §4.1: a leaf-spine fabric of commodity switches with servers
// grouped by function per rack and a dedicated exchange leaf. The loop
// exchange→normalizer→strategy→gateway→exchange crosses 12 switch hops.
type Design1 struct {
	Plant
	LS *topo.LeafSpine

	// RecReaders parse gap-replay responses, one per normalizer (nil before
	// WireGapRecovery); their Recovered counters tally replayed messages.
	RecReaders []*feed.ResponseReader
	// GapRequests counts replay requests normalizers sent to the exchange.
	GapRequests uint64
}

// d1PerRack is how many servers (two NICs each) share a rack.
const d1PerRack = 32

// NewDesign1 builds the full plant. switchCfg overrides the generation
// (pass device.DefaultCommodityConfig() for current hardware).
func NewDesign1(sc Scenario, switchCfg device.CommoditySwitchConfig) *Design1 {
	d := &Design1{Plant: newPlant(sc, shape{name: "Design 1 (leaf-spine)"})}
	// Rack plan: rack 1 normalizers, racks 2..k strategies, rack k+1
	// gateways ("group servers with common functions by rack", §4.1).
	cfg := topo.DefaultLeafSpineConfig()
	cfg.Switch = switchCfg
	cfg.Racks = 2 + (sc.Strategies+d1PerRack-1)/d1PerRack
	cfg.HostsPerRack = 2 * d1PerRack
	d.LS = topo.NewLeafSpine(d.Sched, cfg)
	d.build(d)
	return d
}

func (d *Design1) place() {
	d.LS.Attach(0, d.Ex.MDNIC())
	d.LS.Attach(0, d.Ex.OENIC())
	for _, n := range d.Norms {
		d.LS.Attach(1, n.RawNIC())
		d.LS.Attach(1, n.PubNIC())
		for _, g := range d.RawMap.Groups() {
			d.LS.Join(g, n.RawNIC())
		}
	}
	gwLeaf := d.LS.Config().Racks
	for _, g := range d.Gws {
		d.LS.Attach(gwLeaf, g.InNIC())
		d.LS.Attach(gwLeaf, g.ExNIC())
	}
	for i, s := range d.Strats {
		leaf := 2 + i/d1PerRack
		d.LS.Attach(leaf, s.MDNIC())
		d.LS.Attach(leaf, s.OENIC())
		for _, part := range subscriptionSlice(i, d.Scenario.InternalPartitions) {
			d.LS.Join(d.OutMap.GroupByIndex(part), s.MDNIC())
		}
	}
}

// attachStandby puts the standby on the exchange leaf: an HA pair shares the
// facility (the journal rides a dedicated cross-connect, not the fabric), and
// its NICs idle until promotion.
func (d *Design1) attachStandby(bak *exchange.Exchange) {
	d.LS.Attach(0, bak.MDNIC())
	d.LS.Attach(0, bak.OENIC())
}

func (d *Design1) loop() (int, sim.Duration) {
	return 12, 12 * d.LS.Config().Switch.Latency
}

// WireGapRecovery dials a gap-recovery stream from every normalizer to the
// exchange's replay service (over the fabric, on the normalizer's pub NIC)
// and hangs replay requests off the normalizers' gap handlers. Recovered
// messages re-enter the normalize path and are re-sequenced onto the
// internal feed — downstream consumers see late data instead of lost data,
// which is exactly the §2 sequenced-feed recovery contract.
func (d *Design1) WireGapRecovery() {
	for i, n := range d.Norms {
		mux := netsim.NewStreamMux(n.PubNIC())
		localPort := uint16(46000 + i)
		exPort := d.Ex.AcceptRecoverySession(n.PubNIC().Addr(localPort))
		st := netsim.NewStream(n.PubNIC(), localPort, d.Ex.OENIC().Addr(exPort))
		mux.Register(st)
		rr := &feed.ResponseReader{}
		st.OnData = func(b []byte) { _ = rr.Read(b, n.ConsumeRecovered) }
		n.OnGap = func(gi feed.GapInfo) {
			d.GapRequests++
			st.Write(feed.AppendRecoveryRequest(nil, gi.Unit, gi.Expected, gi.Got))
		}
		d.RecReaders = append(d.RecReaders, rr)
	}
}
