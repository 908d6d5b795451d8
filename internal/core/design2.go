package core

import (
	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/netsim"
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
}

// NewDesign2 builds the cloud plant with the given per-tenant path
// latencies (zone placement). equalize toggles the fairness fabric.
func NewDesign2(sc Scenario, tenantLat []sim.Duration, equalize bool) *Design2 {
	d := &Design2{Plant: newPlant(sc, shape{name: "Design 2 (cloud)", tenants: len(tenantLat)})}
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
