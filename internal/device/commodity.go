// Package device models the forwarding hardware the paper's designs choose
// between: commodity cut-through switches with finite multicast state
// (Design 1), Layer-1 switches with nanosecond fan-out and merge units
// (Design 3), and a cloud latency equalizer (Design 2).
package device

import (
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// CommoditySwitchConfig parameterizes a merchant-silicon switch.
type CommoditySwitchConfig struct {
	// Latency is the port-to-port cut-through latency. Present-generation
	// devices sit around 500 ns (§3).
	Latency sim.Duration
	// MrouteCapacity is the multicast route table size. When exceeded, new
	// groups fall back to software forwarding (§3: overflow "cripples
	// performance and induces heavy packet loss").
	MrouteCapacity int
	// SoftwareLatency is the per-frame latency of the software forwarding
	// path used after table overflow.
	SoftwareLatency sim.Duration
	// SoftwarePPS caps the software path's forwarding rate in
	// packets/second; excess arrivals are dropped.
	SoftwarePPS int
	// QueueBytes is the per-egress-port buffer (0 = netsim default).
	QueueBytes int
}

// DefaultCommodityConfig returns a current-generation switch: ~500 ns
// cut-through latency, a few thousand multicast routes, and a slow-path
// in the tens of microseconds.
func DefaultCommodityConfig() CommoditySwitchConfig {
	return CommoditySwitchConfig{
		Latency:         500 * sim.Nanosecond,
		MrouteCapacity:  4096,
		SoftwareLatency: 50 * sim.Microsecond,
		SoftwarePPS:     50_000,
		QueueBytes:      0,
	}
}

// CommoditySwitch is a store-free cut-through Ethernet switch with a
// unicast FIB and a capacity-limited multicast route table.
type CommoditySwitch struct {
	Name  string
	sched *sim.Scheduler
	cfg   CommoditySwitchConfig
	ports []*netsim.Port

	fib    map[pkt.MAC]*netsim.Port
	mroute map[pkt.IP4]*mcastEntry
	// softGroups holds groups that arrived after the table filled.
	softGroups map[pkt.IP4]*mcastEntry
	softBusy   sim.Time

	// Stats.
	Forwarded     uint64
	SoftForwarded uint64
	SoftDrops     uint64
	UnknownDrops  uint64
}

// NewCommoditySwitch creates a switch with nports ports.
func NewCommoditySwitch(sched *sim.Scheduler, name string, nports int, cfg CommoditySwitchConfig) *CommoditySwitch {
	if cfg.Latency <= 0 {
		panic("device: switch latency must be positive")
	}
	s := &CommoditySwitch{
		Name:       name,
		sched:      sched,
		cfg:        cfg,
		fib:        make(map[pkt.MAC]*netsim.Port, 2*nports),
		mroute:     make(map[pkt.IP4]*mcastEntry),
		softGroups: make(map[pkt.IP4]*mcastEntry),
	}
	s.ports = netsim.NewPorts(sched, s, name, nports)
	for _, p := range s.ports {
		p.CutThrough = true
		if cfg.QueueBytes > 0 {
			p.SetQueueCapacity(cfg.QueueBytes)
		}
	}
	return s
}

// Port returns port i.
func (s *CommoditySwitch) Port(i int) *netsim.Port { return s.ports[i] }

// Ports returns the port count.
func (s *CommoditySwitch) Ports() int { return len(s.ports) }

// Config returns the switch configuration.
func (s *CommoditySwitch) Config() CommoditySwitchConfig { return s.cfg }

// Learn programs the unicast FIB: frames for mac exit via port i.
func (s *CommoditySwitch) Learn(mac pkt.MAC, i int) { s.fib[mac] = s.ports[i] }

// JoinGroup adds egress port i to group's delivery set. It reports whether
// the group is in the hardware table; false means the table was full and
// the group is served by the software slow path.
func (s *CommoditySwitch) JoinGroup(group pkt.IP4, i int) bool {
	p := s.ports[i]
	if ent, ok := s.mroute[group]; ok {
		ent.ports = appendUniquePort(ent.ports, p)
		return true
	}
	if ent, ok := s.softGroups[group]; ok {
		ent.ports = appendUniquePort(ent.ports, p)
		return false
	}
	if len(s.mroute) < s.cfg.MrouteCapacity {
		s.mroute[group] = &mcastEntry{ports: []*netsim.Port{p}}
		return true
	}
	s.softGroups[group] = &mcastEntry{ports: []*netsim.Port{p}}
	return false
}

func appendUniquePort(lst []*netsim.Port, p *netsim.Port) []*netsim.Port {
	for _, q := range lst {
		if q == p {
			return lst
		}
	}
	return append(lst, p)
}

// LeaveGroup removes egress port i from group's delivery set (in whichever
// table holds it). The table entry itself is retained until the group has
// no ports left, at which point the entry is deleted and — if it was a
// hardware entry — its slot becomes reusable.
func (s *CommoditySwitch) LeaveGroup(group pkt.IP4, i int) {
	p := s.ports[i]
	remove := func(lst []*netsim.Port) []*netsim.Port {
		for j, q := range lst {
			if q == p {
				return append(lst[:j], lst[j+1:]...)
			}
		}
		return lst
	}
	if ent, ok := s.mroute[group]; ok {
		if ent.ports = remove(ent.ports); len(ent.ports) == 0 {
			delete(s.mroute, group)
		}
		return
	}
	if ent, ok := s.softGroups[group]; ok {
		if ent.ports = remove(ent.ports); len(ent.ports) == 0 {
			delete(s.softGroups, group)
		}
	}
}

// PurgeQueues flushes every egress queue — a power or forwarding-plane
// failure takes the packet memory with it. FIB and mroute state is
// persistent configuration and survives (reprogramming on recovery is the
// control plane's job, modelled by the topology's reconvergence). Returns
// the number of frames purged.
func (s *CommoditySwitch) PurgeQueues() int {
	n := 0
	for _, p := range s.ports {
		n += p.PurgeQueue()
	}
	return n
}

// SetLinksUp changes the link state of every connected port on the switch —
// the data-plane face of a whole-device failure. Unconnected ports are
// skipped.
func (s *CommoditySwitch) SetLinksUp(up bool) {
	for _, p := range s.ports {
		if p.Connected() {
			p.SetUp(up)
			p.Peer().SetUp(up)
		}
	}
}

// HardwareGroups returns the number of groups installed in the ASIC table.
func (s *CommoditySwitch) HardwareGroups() int { return len(s.mroute) }

// SoftwareGroups returns the number of overflowed groups.
func (s *CommoditySwitch) SoftwareGroups() int { return len(s.softGroups) }

// sendFrame is the deferred-forward callback for a single frame to a single
// port (unicast, the filtering L1S's and the cloud equalizer's per-leg
// delays), scheduled closure-free via AfterArgs.
func sendFrame(a, b any) {
	a.(*netsim.Port).Send(b.(*netsim.Frame))
}

// mcastEntry is one multicast group's egress set. Groups are boxed so the
// deferred fan-out can carry a stable pointer through AfterArgs3 instead of
// a slice-capturing closure (slices don't box into any without allocating).
type mcastEntry struct {
	ports []*netsim.Port
}

// fanOutEntry is the deferred multicast-forward callback: egress set,
// ingress to suppress, frame.
func fanOutEntry(a, b, c any) {
	fanOut(a.(*mcastEntry).ports, b.(*netsim.Port), c.(*netsim.Frame))
}

// HandleFrame implements netsim.Handler: look up the egress set, charge
// the pipeline latency, and enqueue on the egress ports. Dropped frames
// terminate here and return to the pool.
func (s *CommoditySwitch) HandleFrame(ingress *netsim.Port, f *netsim.Frame) {
	var eth pkt.Ethernet
	if _, err := eth.Decode(f.Data); err != nil {
		s.UnknownDrops++
		f.Release()
		return
	}
	if eth.Dst.IsMulticast() {
		s.forwardMulticast(ingress, f, eth.Dst)
		return
	}
	out, ok := s.fib[eth.Dst]
	if !ok {
		s.UnknownDrops++
		f.Release()
		return
	}
	if out == ingress {
		f.Release()
		return // hairpin suppressed
	}
	s.Forwarded++
	if t := f.Trace; t != nil {
		t.Record(s.Name, trace.CauseSwitching, s.sched.Now().Add(s.cfg.Latency))
	}
	s.sched.AfterArgs(s.cfg.Latency, sim.PrioDeliver, sendFrame, out, f)
}

func (s *CommoditySwitch) forwardMulticast(ingress *netsim.Port, f *netsim.Frame, dst pkt.MAC) {
	// Invert the RFC 1112 mapping ambiguity by scanning installed groups:
	// the table is keyed by IP group, frames carry the derived MAC. IP
	// parsing gives the exact group.
	var uf pkt.UDPFrame
	if err := pkt.ParseUDPFrame(f.Data, &uf); err != nil {
		s.UnknownDrops++
		f.Release()
		return
	}
	group := uf.IP.Dst
	if ent, ok := s.mroute[group]; ok {
		s.Forwarded++
		if t := f.Trace; t != nil {
			// Fan-out clones fork after this span, so every replica carries
			// the in-switch time.
			t.Record(s.Name, trace.CauseSwitching, s.sched.Now().Add(s.cfg.Latency))
		}
		s.sched.AfterArgs3(s.cfg.Latency, sim.PrioDeliver, fanOutEntry, ent, ingress, f)
		return
	}
	ent, ok := s.softGroups[group]
	if !ok {
		s.UnknownDrops++
		f.Release()
		return
	}
	// Software slow path: a CPU forwards one frame at a time at
	// SoftwarePPS; arrivals beyond the queue-free service rate drop. This
	// is the §3 overflow cliff.
	now := s.sched.Now()
	service := sim.Duration(int64(sim.Second) / int64(s.cfg.SoftwarePPS))
	if s.softBusy < now {
		s.softBusy = now
	}
	// Allow a short CPU backlog (16 frames); beyond it, drop.
	if s.softBusy.Sub(now) > 16*service {
		s.SoftDrops++
		if t := f.Trace; t != nil {
			t.Record(s.Name, trace.CauseSoftware, now)
			t.Finish(trace.EndDropped)
			f.Trace = nil
		}
		f.Release()
		return
	}
	start := s.softBusy
	s.softBusy = start.Add(service)
	s.SoftForwarded++
	if t := f.Trace; t != nil {
		// The slow path is a CPU, so its time is software, not switching.
		t.Record(s.Name, trace.CauseSoftware, start.Add(s.cfg.SoftwareLatency))
	}
	s.sched.AtArgs3(start.Add(s.cfg.SoftwareLatency), sim.PrioDeliver, fanOutEntry, ent, ingress, f)
}

// fanOut replicates f to every egress except ingress. Clone copies nothing:
// an untraced f goes to every leg as the one *netsim.Frame, counted once per
// leg, and a traced f gets a header with a forked trace per extra leg. The
// last eligible leg takes over the caller's hold instead of adding one, so
// a fan-out of one is a plain forward; a fan-out with no eligible legs
// terminates the frame.
func fanOut(outs []*netsim.Port, ingress *netsim.Port, f *netsim.Frame) {
	n := 0
	for _, out := range outs {
		if out != ingress {
			n++
		}
	}
	if n == 0 {
		f.Release()
		return
	}
	i := 0
	for _, out := range outs {
		if out == ingress {
			continue
		}
		i++
		if i == n {
			out.Send(f)
		} else {
			out.Send(f.Clone())
		}
	}
}
