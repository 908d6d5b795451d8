package topo

import (
	"tradenet/internal/device"
	"tradenet/internal/netsim"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// L1FabricConfig parameterizes Design 3.
type L1FabricConfig struct {
	Switch     device.L1SwitchConfig
	LinkRate   units.Bandwidth
	CableDelay sim.Duration
	// Ports sizes each of the four switches.
	Ports int
}

// DefaultL1FabricConfig returns the paper's L1S profile over 10G links.
func DefaultL1FabricConfig() L1FabricConfig {
	return L1FabricConfig{
		Switch:     device.DefaultL1SConfig(),
		LinkRate:   units.Rate10G,
		CableDelay: 25 * sim.Nanosecond,
		Ports:      1100,
	}
}

// L1Fabric is Design 3: "four different networks between each of: exchanges
// and normalizers, normalizers and strategies, strategies and gateways, and
// gateways and exchanges" (§4.3), each an L1 circuit switch.
type L1Fabric struct {
	cfg   L1FabricConfig
	sched *sim.Scheduler

	ExToNorm    *device.L1Switch
	NormToStrat *device.L1Switch
	StratToGw   *device.L1Switch
	GwToEx      *device.L1Switch

	// Keyed by L1Switch.Name (unique per fabric), not by pointer, so no
	// allocator address can ever order fabric state.
	next        map[string]int
	circuitMaps map[string]map[int][]int
}

// NewL1Fabric builds the four switches.
func NewL1Fabric(sched *sim.Scheduler, cfg L1FabricConfig) *L1Fabric {
	f := &L1Fabric{cfg: cfg, sched: sched, next: make(map[string]int)}
	f.ExToNorm = device.NewL1Switch(sched, "l1s-ex-norm", cfg.Ports, cfg.Switch)
	f.NormToStrat = device.NewL1Switch(sched, "l1s-norm-strat", cfg.Ports, cfg.Switch)
	f.StratToGw = device.NewL1Switch(sched, "l1s-strat-gw", cfg.Ports, cfg.Switch)
	f.GwToEx = device.NewL1Switch(sched, "l1s-gw-ex", cfg.Ports, cfg.Switch)
	return f
}

// Config returns the fabric configuration.
func (f *L1Fabric) Config() L1FabricConfig { return f.cfg }

// attach wires nic to the next free port of sw and returns the port index.
func (f *L1Fabric) attach(sw *device.L1Switch, nic *netsim.NIC) int {
	p := f.next[sw.Name]
	f.next[sw.Name]++
	netsim.Connect(sw.Port(p), nic.Port, f.cfg.LinkRate, f.cfg.CableDelay)
	return p
}

// AttachSource wires a publishing NIC (exchange md, normalizer pub,
// strategy oe, gateway ex) into the given network and returns its input
// port.
func (f *L1Fabric) AttachSource(sw *device.L1Switch, nic *netsim.NIC) int {
	return f.attach(sw, nic)
}

// AttachSink wires a consuming NIC into the given network and returns its
// output port.
func (f *L1Fabric) AttachSink(sw *device.L1Switch, nic *netsim.NIC) int {
	return f.attach(sw, nic)
}

// Deliver configures circuits so input port in fans out to the given output
// ports. Outputs fed by several inputs become merge ports automatically —
// the §4.3 interface-proliferation trade: a strategy subscribing to many
// normalizers either needs a NIC per feed or a merge in front of one NIC.
func (f *L1Fabric) Deliver(sw *device.L1Switch, in int, outs ...int) {
	f.Circuits(sw)[in] = append([]int(nil), outs...)
	sw.Circuit(in, outs...)
}

// circuits caches per-switch circuit maps for Deliver bookkeeping.
func (f *L1Fabric) Circuits(sw *device.L1Switch) map[int][]int {
	if f.circuitMaps == nil {
		f.circuitMaps = make(map[string]map[int][]int)
	}
	m, ok := f.circuitMaps[sw.Name]
	if !ok {
		m = make(map[int][]int)
		f.circuitMaps[sw.Name] = m
	}
	return m
}
