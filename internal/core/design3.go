package core

import (
	"slices"

	"tradenet/internal/exchange"
	"tradenet/internal/sim"
	"tradenet/internal/topo"
)

// Design3 is §4.3: four Layer-1 circuit-switch networks, one per leg of the
// loop. Fan-out happens at wire speed (~5 ns); anywhere multiple sources
// share a consumer NIC, the merge unit adds 50 ns and introduces the
// contention the paper warns about.
type Design3 struct {
	Plant
	Fabric *topo.L1Fabric

	// NormSubs[i] is the set of normalizer indices strategy i subscribes
	// to; with one L1S NIC per strategy, |NormSubs[i]| > 1 implies merging.
	NormSubs [][]int

	maxSubs   int
	normOuts  []int // normalizer raw-NIC ports on network 1
	gwExPorts []int // gateway exchange-NIC ports on network 4
}

// NewDesign3 builds the four-network L1S plant. maxSubs caps the number of
// normalizer feeds a strategy may take ("a practical workaround for NIC
// proliferation is to restrict the total number of normalizers each trading
// strategy can subscribe to"); 0 means all.
func NewDesign3(sc Scenario, maxSubs int) *Design3 {
	d := &Design3{Plant: newPlant(sc, shape{name: "Design 3 (L1S)", ownPartitions: true}), maxSubs: maxSubs}
	cfg := topo.DefaultL1FabricConfig()
	cfg.Ports = 2*sc.Servers() + 16
	d.Fabric = topo.NewL1Fabric(d.Sched, cfg)
	d.build(d)
	return d
}

func (d *Design3) place() {
	sc, f := d.Scenario, d.Fabric

	// Network 1: exchange → normalizers. Pure fan-out; the L1S replicates
	// the raw feed to every normalizer's NIC, which filters by group.
	exIn := f.AttachSource(f.ExToNorm, d.Ex.MDNIC())
	for _, n := range d.Norms {
		d.normOuts = append(d.normOuts, f.AttachSink(f.ExToNorm, n.RawNIC()))
	}
	f.Deliver(f.ExToNorm, exIn, d.normOuts...)

	// Network 2: normalizers → strategies. A strategy's partitions are
	// owned by several normalizers, but it has one MD NIC: every feed
	// beyond the first must merge onto that NIC (§4.3's trade). maxSubs
	// caps the feeds taken; capped-away partitions are simply not received
	// — the reduced-partitioning cost the paper describes.
	normIns := make([]int, len(d.Norms))
	for i, n := range d.Norms {
		normIns[i] = f.AttachSource(f.NormToStrat, n.PubNIC())
	}
	normFanouts := make([][]int, len(d.Norms))
	for i, s := range d.Strats {
		out := f.AttachSink(f.NormToStrat, s.MDNIC())
		var owners []int
		for _, part := range subscriptionSlice(i, sc.InternalPartitions) {
			if o := part % len(d.Norms); !slices.Contains(owners, o) {
				owners = append(owners, o)
			}
		}
		if d.maxSubs > 0 && len(owners) > d.maxSubs {
			owners = owners[:d.maxSubs]
		}
		for _, o := range owners {
			normFanouts[o] = append(normFanouts[o], out)
		}
		d.NormSubs = append(d.NormSubs, owners)
	}
	for i, outs := range normFanouts {
		if len(outs) > 0 {
			f.Deliver(f.NormToStrat, normIns[i], outs...)
		}
	}

	// Network 3: strategies → gateways (merge many strategies onto each
	// gateway NIC) and the reverse circuits for responses.
	gwInPorts := make([]int, len(d.Gws))
	for i, g := range d.Gws {
		gwInPorts[i] = f.AttachSink(f.StratToGw, g.InNIC())
	}
	for i, s := range d.Strats {
		in := f.AttachSource(f.StratToGw, s.OENIC())
		gw := gwInPorts[i%len(d.Gws)]
		f.Deliver(f.StratToGw, in, gw)
		// Reverse: gateway responses fan out to its strategies' NICs, which
		// filter by MAC (an L1S cannot address individual consumers).
		f.Deliver(f.StratToGw, gw, append(f.Circuits(f.StratToGw)[gw], in)...)
	}

	// Network 4: gateways → exchange, and responses back.
	exOE := f.AttachSink(f.GwToEx, d.Ex.OENIC())
	for _, g := range d.Gws {
		in := f.AttachSource(f.GwToEx, g.ExNIC())
		d.gwExPorts = append(d.gwExPorts, in)
		f.Deliver(f.GwToEx, in, exOE)
	}
	f.Deliver(f.GwToEx, exOE, d.gwExPorts...)
}

// attachStandby joins the standby to the feed and order networks as a second
// set of circuit endpoints. Its MD source shares the normalizers' sink NICs
// (which therefore become merge outputs — the §4.3 contention cost of a
// second source), and each gateway's order circuit also reaches the standby's
// OE NIC, which filters by MAC until clients re-home to it.
func (d *Design3) attachStandby(bak *exchange.Exchange) {
	f := d.Fabric
	bakIn := f.AttachSource(f.ExToNorm, bak.MDNIC())
	f.Deliver(f.ExToNorm, bakIn, d.normOuts...)
	bakOE := f.AttachSink(f.GwToEx, bak.OENIC())
	for _, in := range d.gwExPorts {
		f.Deliver(f.GwToEx, in, append(f.Circuits(f.GwToEx)[in], bakOE)...)
	}
	f.Deliver(f.GwToEx, bakOE, d.gwExPorts...)
}

// loop: 4 L1S hops of FanoutLatency each, plus MergeLatency at every merge
// stage. The order-side legs (strategy→gateway, gateway→exchange) always pass
// merge units; the feed legs are pure fan-out unless strategies merge
// normalizer feeds.
func (d *Design3) loop() (int, sim.Duration) {
	cfg := d.Fabric.Config().Switch
	merges := 2
	if len(d.NormSubs) > 0 && len(d.NormSubs[0]) > 1 {
		merges++
	}
	return 4, 4*cfg.FanoutLatency + sim.Duration(merges)*cfg.MergeLatency
}

// MergePorts reports how many merge outputs each of the four networks has.
func (d *Design3) MergePorts() map[string]int {
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
