// Package colo models the metropolitan geography of US equities and options
// trading (paper Fig. 1a): the three New Jersey colocation facilities,
// the exchanges homed in each, and the private WAN circuits — fiber and
// microwave — that trading firms run between them.
package colo

import (
	"fmt"

	"tradenet/internal/netsim"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// Facility is one colocation site.
type Facility struct {
	Name      string
	Exchanges []string
}

// The three facilities hosting all US equities exchanges (Fig. 1a). Trading
// on all US equities markets requires presence in all three.
var (
	Mahwah   = Facility{Name: "Mahwah", Exchanges: []string{"NYSE", "AMEX", "ARCA", "National", "Chicago"}}
	Secaucus = Facility{Name: "Secaucus", Exchanges: []string{"CBOE", "BOX", "MEMX", "LTSE", "MIAX"}}
	Carteret = Facility{Name: "Carteret", Exchanges: []string{"NASDAQ", "ISE", "GEMX", "MRX"}}
)

// Distances between facilities ("tens of miles apart"). Line-of-sight
// values; fiber routes multiply by a routing factor.
func lineOfSight(a, b string) units.Distance {
	key := a + "-" + b
	if b < a {
		key = b + "-" + a
	}
	switch key {
	case "Mahwah-Secaucus":
		return 22 * units.Mile
	case "Carteret-Secaucus":
		return 12 * units.Mile
	case "Carteret-Mahwah":
		return 33 * units.Mile
	}
	panic("colo: unknown facility pair " + key)
}

// Medium is a WAN circuit technology.
type Medium uint8

// Circuit media.
const (
	// Fiber: reliable, high bandwidth, but light travels at c/1.47 and
	// routes wander (RouteFactor).
	Fiber Medium = iota
	// Microwave: line-of-sight at essentially c, but lower bandwidth and
	// lossy in rain (§2: firms use it anyway, because latency wins).
	Microwave
)

// String names the medium.
func (m Medium) String() string {
	if m == Fiber {
		return "fiber"
	}
	return "microwave"
}

// CircuitConfig describes one inter-colo circuit.
type CircuitConfig struct {
	Medium Medium
	// RouteFactor multiplies line-of-sight distance (fiber routes follow
	// rights-of-way; microwave towers are near-direct).
	RouteFactor float64
	Bandwidth   units.Bandwidth
	// RainLossProb is the per-frame loss probability while it is raining
	// (microwave only).
	RainLossProb float64
}

// DefaultFiber returns a metro dark-fiber circuit profile.
func DefaultFiber() CircuitConfig {
	return CircuitConfig{Medium: Fiber, RouteFactor: 1.35, Bandwidth: 100 * units.Gbps}
}

// DefaultMicrowave returns a licensed microwave circuit profile.
func DefaultMicrowave() CircuitConfig {
	return CircuitConfig{Medium: Microwave, RouteFactor: 1.02, Bandwidth: 1 * units.Gbps, RainLossProb: 0.02}
}

// Circuit is a provisioned WAN link between two facilities.
type Circuit struct {
	A, B    Facility
	Config  CircuitConfig
	PortA   *netsim.Port // in facility A
	PortB   *netsim.Port // in facility B
	Latency sim.Duration // one-way propagation

	// rainDepth refcounts overlapping rain windows: the circuit is rainy
	// while any window is open, and only the last SetRaining(false)
	// clears the fade.
	rainDepth int
}

// NewCircuit provisions a circuit between a and b, terminating on handlers
// ha and hb (typically the facilities' WAN-facing switches or hosts).
func NewCircuit(sched *sim.Scheduler, a, b Facility, cfg CircuitConfig, ha, hb netsim.Handler) *Circuit {
	dist := units.Distance(float64(lineOfSight(a.Name, b.Name)) * cfg.RouteFactor)
	var prop sim.Duration
	switch cfg.Medium {
	case Fiber:
		prop = units.FiberDelay(dist)
	case Microwave:
		prop = units.MicrowaveDelay(dist)
	}
	c := &Circuit{A: a, B: b, Config: cfg, Latency: prop}
	c.PortA = netsim.NewPort(sched, ha, fmt.Sprintf("%s->%s/%s", a.Name, b.Name, cfg.Medium))
	c.PortB = netsim.NewPort(sched, hb, fmt.Sprintf("%s->%s/%s", b.Name, a.Name, cfg.Medium))
	netsim.Connect(c.PortA, c.PortB, cfg.Bandwidth, prop)
	return c
}

// SetRaining opens (true) or closes (false) one rain-fade window on a
// microwave circuit. Fiber ignores weather. Windows refcount: overlapping
// calls keep the fade up until the last window closes. The fade is a
// named loss source on the ports, so it composes with fault-plan loss
// bursts instead of clobbering their restore values.
func (c *Circuit) SetRaining(raining bool) {
	if raining {
		c.rainDepth++
	} else if c.rainDepth > 0 {
		c.rainDepth--
	}
	p := 0.0
	if c.rainDepth > 0 && c.Config.Medium == Microwave {
		p = c.Config.RainLossProb
	}
	c.PortA.SetLossSource("rain", p)
	c.PortB.SetLossSource("rain", p)
}

// Raining reports the current weather state.
func (c *Circuit) Raining() bool { return c.rainDepth > 0 }

// FaultName identifies the circuit in a fault plan's event log,
// implementing fault.Rainer.
func (c *Circuit) FaultName() string {
	return c.A.Name + "<->" + c.B.Name + "/" + c.Config.Medium.String()
}

// Advantage returns how much faster medium fast is than medium slow between
// the same pair — the latency edge a microwave network buys (§2).
func Advantage(sched *sim.Scheduler, a, b Facility) sim.Duration {
	null := netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) {})
	f := NewCircuit(sched, a, b, DefaultFiber(), null, null)
	m := NewCircuit(sched, a, b, DefaultMicrowave(), null, null)
	return f.Latency - m.Latency
}
