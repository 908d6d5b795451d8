package core

import (
	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// Design2 is §4.2: exchange and trading machines hosted in a cloud whose
// fabric equalizes latency across tenants. Normalization is folded into the
// cloud-hosted exchange (it publishes the internal format directly), per
// the cloud-exchange proposals the paper cites; each tenant runs a strategy
// directly against that feed and holds its own exchange session.
type Design2 struct {
	Plant
	EqMD *device.CloudEqualizer
	EqOE *device.CloudEqualizer

	// arrivals[ipID][tenant] records market-data delivery times for skew
	// analysis; the zero Time means "not delivered to this tenant" (nothing
	// arrives at t=0 — every path charges positive latency).
	arrivals map[uint16][]sim.Time
}

// NewDesign2 builds the cloud plant with the given per-tenant path
// latencies (zone placement). equalize toggles the fairness fabric.
func NewDesign2(sc Scenario, tenantLat []sim.Duration, equalize bool) *Design2 {
	d := &Design2{
		Plant:    newPlant(sc, shape{name: "Design 2 (cloud)", tenants: len(tenantLat)}),
		arrivals: make(map[uint16][]sim.Time),
	}
	cfg := device.DefaultCloudConfig()
	cfg.Equalize = equalize
	d.EqMD = device.NewCloudEqualizer(d.Sched, "cloud-md", tenantLat, cfg)
	d.EqOE = device.NewCloudEqualizer(d.Sched, "cloud-oe", tenantLat, cfg)
	d.build(d)
	return d
}

func (d *Design2) place() {
	netsim.Connect(d.Ex.MDNIC().Port, d.EqMD.ExchangePort(), units.Rate10G, 0)
	netsim.Connect(d.Ex.OENIC().Port, d.EqOE.ExchangePort(), units.Rate10G, 0)
	for i, s := range d.Strats {
		netsim.Connect(s.MDNIC().Port, d.EqMD.TenantPort(i+1), units.Rate10G, 0)
		netsim.Connect(s.OENIC().Port, d.EqOE.TenantPort(i+1), units.Rate10G, 0)

		// Wrap the MD handler to record per-datagram arrival for skew.
		inner := s.MDNIC().OnFrame
		s.MDNIC().OnFrame = func(n *netsim.NIC, f *netsim.Frame) {
			var uf pkt.UDPFrame
			if err := pkt.ParseUDPFrame(f.Data, &uf); err == nil {
				m := d.arrivals[uf.IP.ID]
				if m == nil {
					m = make([]sim.Time, len(d.Strats))
					d.arrivals[uf.IP.ID] = m
				}
				m[i] = d.Sched.Now()
			}
			inner(n, f)
		}
	}
}

// attachStandby hangs the standby off provisioned-but-inactive equalizer
// ports; promotion swaps them into the exchange slot so tenant unicasts and
// feed multicasts re-steer without the tenants re-addressing.
func (d *Design2) attachStandby(bak *exchange.Exchange) {
	netsim.Connect(bak.MDNIC().Port, d.EqMD.AddStandbyPort(), units.Rate10G, 0)
	netsim.Connect(bak.OENIC().Port, d.EqOE.AddStandbyPort(), units.Rate10G, 0)
	d.HA.OnPromote = func() {
		d.EqMD.PromoteStandby()
		d.EqOE.PromoteStandby()
	}
}

// loop: exchange → cloud fabric → strategy → cloud fabric → exchange crosses
// no switch the tenant can see; the transit is the equalizer's delay.
func (d *Design2) loop() (int, sim.Duration) { return 0, 0 }
