package device

import (
	"tradenet/internal/netsim"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// L1SwitchConfig parameterizes a Layer-1 switch (Arista 7130-class, §4.3).
type L1SwitchConfig struct {
	// FanoutLatency is the input-to-output latency of a pure circuit path:
	// "only 5–6 nanoseconds".
	FanoutLatency sim.Duration
	// MergeLatency is the additional latency of the media-access merge
	// unit: "at the expense of an additional 50 nanoseconds".
	MergeLatency sim.Duration
	// MergeQueueBytes bounds the merge unit's buffer. Merged bursty feeds
	// "can easily exceed the available bandwidth, leading to latency from
	// queuing or packet loss" — the buffer is where that happens.
	MergeQueueBytes int
}

// DefaultL1SConfig returns the paper's cited characteristics.
func DefaultL1SConfig() L1SwitchConfig {
	return L1SwitchConfig{
		FanoutLatency:   5 * sim.Nanosecond,
		MergeLatency:    50 * sim.Nanosecond,
		MergeQueueBytes: 64 * 1024,
	}
}

// L1Switch is a Layer-1 crossbar: it forwards the physical signal from any
// input port to any configured set of output ports. It cannot classify or
// filter packets (it never parses them), cannot split traffic across paths,
// and — via its merge unit — can combine several inputs onto one output.
// It timestamps every frame it forwards ("built-in accurate timestamping").
type L1Switch struct {
	Name  string
	sched *sim.Scheduler
	cfg   L1SwitchConfig
	ports []*netsim.Port

	// circuits holds each ingress port's configured egress set, indexed by
	// port.
	circuits []l1Circuit
	// feeders counts, per egress port, the circuit legs pointing at it. An
	// egress fed by more than one is a merge output: traffic to it passes
	// the merge unit.
	feeders []int
	// gen advances on every Circuit call. A circuit's latency groups depend
	// on the merge state of its outputs, which another ingress's circuit can
	// change, so they are rebuilt on the first frame after any change.
	gen uint64

	// Timestamp, if set, observes every forwarded frame with the hardware
	// timestamp taken at ingress.
	Timestamp func(ingressPort int, f *netsim.Frame, at sim.Time)

	// Stats.
	Forwarded uint64
	NoRoute   uint64
}

// l1Circuit is one ingress port's configuration.
type l1Circuit struct {
	outs []int
	// groups splits outs by latency, in firing order: the plain legs, then
	// the legs behind a merge unit. Valid while gen matches the switch's.
	groups []*l1Group
	gen    uint64
}

// l1Group is the set of a circuit's legs that share one latency, replicated
// by one deferred event. It is immutable, so a fan-out already scheduled
// keeps the legs it had at ingress when the circuit is reconfigured under it.
type l1Group struct {
	sw    *L1Switch
	lat   sim.Duration
	ports []*netsim.Port
	// owns marks the circuit's last group to fire: it holds the frame, and
	// its last leg carries the original. An earlier group clones every leg.
	owns bool
}

// NewL1Switch creates an L1 switch with nports ports and no circuits.
func NewL1Switch(sched *sim.Scheduler, name string, nports int, cfg L1SwitchConfig) *L1Switch {
	if cfg.FanoutLatency <= 0 {
		panic("device: L1S fanout latency must be positive")
	}
	if cfg.MergeLatency < 0 {
		panic("device: L1S merge latency must not be negative")
	}
	s := &L1Switch{
		Name:     name,
		sched:    sched,
		cfg:      cfg,
		circuits: make([]l1Circuit, nports),
		feeders:  make([]int, nports),
	}
	s.ports = netsim.NewPorts(sched, s, name, nports)
	for _, p := range s.ports {
		p.CutThrough = true
	}
	return s
}

// Port returns port i.
func (s *L1Switch) Port(i int) *netsim.Port { return s.ports[i] }

// Ports returns the port count.
func (s *L1Switch) Ports() int { return len(s.ports) }

// Config returns the switch configuration.
func (s *L1Switch) Config() L1SwitchConfig { return s.cfg }

// Circuit configures ingress port in to replicate to every port in outs.
// Calling it again for the same ingress replaces the set. Egress ports fed
// by multiple ingresses become merge outputs automatically.
func (s *L1Switch) Circuit(in int, outs ...int) {
	c := &s.circuits[in]
	for _, o := range c.outs {
		s.feeders[o]--
	}
	c.outs = append([]int(nil), outs...)
	for _, o := range outs {
		s.feeders[o]++
		if s.feeders[o] == 2 {
			s.ports[o].SetQueueCapacity(s.cfg.MergeQueueBytes)
		}
	}
	s.gen++
}

// IsMergeOutput reports whether egress port i passes the merge unit.
func (s *L1Switch) IsMergeOutput(i int) bool { return s.feeders[i] > 1 }

// regroup rebuilds c's latency groups from its egress set and the current
// merge state of each output. c has at least one leg.
func (s *L1Switch) regroup(c *l1Circuit) {
	plain := &l1Group{sw: s, lat: s.cfg.FanoutLatency}
	merged := plain
	if s.cfg.MergeLatency > 0 {
		merged = &l1Group{sw: s, lat: s.cfg.FanoutLatency + s.cfg.MergeLatency}
	}
	for _, o := range c.outs {
		g := plain
		if s.feeders[o] > 1 {
			g = merged
		}
		g.ports = append(g.ports, s.ports[o])
	}
	c.groups = nil
	if len(plain.ports) > 0 {
		c.groups = append(c.groups, plain)
	}
	if merged != plain && len(merged.ports) > 0 {
		c.groups = append(c.groups, merged)
	}
	c.groups[len(c.groups)-1].owns = true
	c.gen = s.gen
}

// HandleFrame implements netsim.Handler: replicate to the circuit's egress
// set with the configured latencies. The frame is never parsed — an L1S is
// bit-level — so there is no classification, no filtering, and no FIB.
func (s *L1Switch) HandleFrame(ingress *netsim.Port, f *netsim.Frame) {
	in := ingress.Index
	c := &s.circuits[in]
	if len(c.outs) == 0 {
		s.NoRoute++
		f.Release()
		return
	}
	if c.gen != s.gen {
		s.regroup(c)
	}
	if s.Timestamp != nil {
		s.Timestamp(in, f, s.sched.Now())
	}
	s.Forwarded++
	// One event per latency group, not per leg: the legs of a group leave at
	// one instant with nothing between them, so replicating inside a single
	// event sends them in the same order at a fraction of the scheduling.
	for _, g := range c.groups {
		s.sched.AfterArgs(g.lat, sim.PrioDeliver, l1FanOut, g, f)
	}
}

// l1FanOut is the deferred replication callback: latency group, frame. It
// clones per leg (the owning group's last leg carries the original) and
// records the switching span per leg after the fork, since legs of different
// groups spend different times in the switch.
func l1FanOut(a, b any) {
	g := a.(*l1Group)
	f := b.(*netsim.Frame)
	now := g.sw.sched.Now()
	last := len(g.ports) - 1
	for i, out := range g.ports {
		ff := f
		if i < last || !g.owns {
			ff = f.Clone()
		}
		if t := ff.Trace; t != nil {
			t.Record(g.sw.Name, trace.CauseSwitching, now)
		}
		out.Send(ff)
	}
}
