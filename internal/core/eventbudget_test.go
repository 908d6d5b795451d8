package core

import (
	"testing"

	"tradenet/internal/device"
	"tradenet/internal/firm"
	"tradenet/internal/netsim"
	"tradenet/internal/sim"
)

// TestEventBudgetPerFrame holds the scheduler cost of moving a frame to a
// stated ceiling on the three small plants. An idle hop costs two events —
// the egress drain that starts the transmit and the delivery at the far end —
// plus one per fan-out group at a replication point, shared by all its legs;
// timers, software stages and the cloud equalizer's per-tenant delays make up
// the rest. The ceilings sit a few percent above today's ratios (2.70, 2.80
// and 2.27 events per frame) and below what they were when every L1 leg had
// an event of its own and every transmit was followed by a drain event that
// usually found the queue empty (3.08, 3.25 and 3.34): a change that brings
// either back fails here, not in a benchmark run weeks later.
func TestEventBudgetPerFrame(t *testing.T) {
	nics := func(ns ...*netsim.NIC) (ports []*netsim.Port) {
		for _, n := range ns {
			ports = append(ports, n.Port)
		}
		return ports
	}
	apps := func(norms []*firm.Normalizer, strats []*firm.Strategy, gws []*firm.Gateway) (ports []*netsim.Port) {
		for _, n := range norms {
			ports = append(ports, nics(n.RawNIC(), n.PubNIC())...)
		}
		for _, s := range strats {
			ports = append(ports, nics(s.MDNIC(), s.OENIC())...)
		}
		for _, g := range gws {
			ports = append(ports, nics(g.InNIC(), g.ExNIC())...)
		}
		return ports
	}
	// withPeers adds the device end of every NIC's link: on a plant whose
	// links all join a NIC to a device, that is every port.
	withPeers := func(hostPorts []*netsim.Port) []*netsim.Port {
		all := hostPorts
		for _, p := range hostPorts {
			all = append(all, p.Peer())
		}
		return all
	}

	type plant struct {
		name    string
		ceiling float64
		build   func() (fired func() uint64, measure func(int) RoundTrip, ports []*netsim.Port)
	}
	plants := []plant{
		{"design1", 2.85, func() (func() uint64, func(int) RoundTrip, []*netsim.Port) {
			d := NewDesign1(SmallScenario(), device.DefaultCommodityConfig())
			ports := append(apps(d.Norms, d.Strats, d.Gws), nics(d.Ex.MDNIC(), d.Ex.OENIC())...)
			for _, sws := range [][]*device.CommoditySwitch{d.LS.Leaves, d.LS.Spines} {
				for _, sw := range sws {
					for i := 0; i < sw.Ports(); i++ {
						ports = append(ports, sw.Port(i))
					}
				}
			}
			return d.Sched.Fired, d.MeasureRoundTrip, ports
		}},
		{"design2", 2.95, func() (func() uint64, func(int) RoundTrip, []*netsim.Port) {
			lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
			d := NewDesign2(SmallScenario(), lats, true)
			ports := append(apps(nil, d.Strats, nil), nics(d.Ex.MDNIC(), d.Ex.OENIC())...)
			return d.Sched.Fired, d.MeasureRoundTrip, withPeers(ports)
		}},
		{"design3", 2.30, func() (func() uint64, func(int) RoundTrip, []*netsim.Port) {
			d := NewDesign3(SmallScenario(), 0)
			ports := append(apps(d.Norms, d.Strats, d.Gws), nics(d.Ex.MDNIC(), d.Ex.OENIC())...)
			return d.Sched.Fired, d.MeasureRoundTrip, withPeers(ports)
		}},
	}
	for _, p := range plants {
		fired, measure, ports := p.build()
		if rt := measure(4); rt.Orders == 0 {
			t.Fatalf("%s: no orders completed the loop", p.name)
		}
		var frames uint64
		for _, port := range ports {
			if port.Connected() {
				frames += port.TxFrames
			}
		}
		ratio := float64(fired()) / float64(frames)
		t.Logf("%s: %d events for %d transmitted frames = %.3f events/frame", p.name, fired(), frames, ratio)
		if frames == 0 || ratio > p.ceiling {
			t.Errorf("%s: %.3f events per transmitted frame, ceiling %.2f", p.name, ratio, p.ceiling)
		}
	}
}
