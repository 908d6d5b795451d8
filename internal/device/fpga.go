package device

import (
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// FilteringL1Config parameterizes the §5 "Hardware" research direction: a
// Layer-1 switch augmented with reconfigurable logic that can classify and
// filter ("several commercial L1Ses take advantage of accelerators based on
// reconfigurable hardware ... 100-nanosecond latency and standard IP
// forwarding and multicast — although they tend to have small forwarding
// tables").
type FilteringL1Config struct {
	// Latency is the through-FPGA forwarding latency (~100 ns, versus 5 ns
	// for a pure circuit and 500 ns for a commodity ASIC).
	Latency sim.Duration
	// TableCapacity bounds the number of (egress, group) filter entries —
	// the "small forwarding tables" caveat.
	TableCapacity int
	// MergeQueueBytes bounds each merge output's buffer.
	MergeQueueBytes int
}

// DefaultFilteringL1Config matches the §5 description.
func DefaultFilteringL1Config() FilteringL1Config {
	return FilteringL1Config{
		Latency:         100 * sim.Nanosecond,
		TableCapacity:   512,
		MergeQueueBytes: 64 * 1024,
	}
}

// FilteringL1Switch forwards like an L1 circuit switch but can drop frames
// whose multicast group an egress has not subscribed to — making merges
// safe: unwanted traffic is discarded before it can queue ("when combined
// with ... data filtering, it should be possible to safely merge feeds
// while avoiding these issues").
type FilteringL1Switch struct {
	Name  string
	sched *sim.Scheduler
	cfg   FilteringL1Config
	ports []*netsim.Port

	fanout map[int][]int
	// subs[egress][group] — installed filter entries. An egress with no
	// entries passes everything (pure circuit behaviour).
	subs    map[int]map[pkt.IP4]bool
	entries int

	// Stats.
	Forwarded   uint64
	FilteredOut uint64
	NoRoute     uint64
}

// NewFilteringL1Switch creates the device with nports ports.
func NewFilteringL1Switch(sched *sim.Scheduler, name string, nports int, cfg FilteringL1Config) *FilteringL1Switch {
	if cfg.Latency <= 0 {
		panic("device: filtering L1S latency must be positive")
	}
	s := &FilteringL1Switch{
		Name:   name,
		sched:  sched,
		cfg:    cfg,
		fanout: make(map[int][]int),
		subs:   make(map[int]map[pkt.IP4]bool),
	}
	s.ports = netsim.NewPorts(sched, s, name, nports)
	for _, p := range s.ports {
		p.CutThrough = true
		p.SetQueueCapacity(cfg.MergeQueueBytes)
	}
	return s
}

// Port returns port i.
func (s *FilteringL1Switch) Port(i int) *netsim.Port { return s.ports[i] }

// Config returns the device configuration.
func (s *FilteringL1Switch) Config() FilteringL1Config { return s.cfg }

// Circuit configures ingress in to replicate toward outs (subject to each
// out's filters).
func (s *FilteringL1Switch) Circuit(in int, outs ...int) {
	s.fanout[in] = append([]int(nil), outs...)
}

// Subscribe installs a filter entry delivering group to egress out. It
// reports false when the filter table is full — the small-table caveat; the
// egress then falls back to pass-everything for uninstalled groups only if
// it has no entries at all, so a full table means lost subscriptions, not
// silent flooding.
func (s *FilteringL1Switch) Subscribe(out int, group pkt.IP4) bool {
	m := s.subs[out]
	if m == nil {
		m = make(map[pkt.IP4]bool)
		s.subs[out] = m
	}
	if m[group] {
		return true
	}
	if s.entries >= s.cfg.TableCapacity {
		return false
	}
	m[group] = true
	s.entries++
	return true
}

// Entries returns installed filter entries.
func (s *FilteringL1Switch) Entries() int { return s.entries }

// HandleFrame implements netsim.Handler: parse just far enough to read the
// multicast group, then replicate to each circuit egress whose filter
// admits the frame.
func (s *FilteringL1Switch) HandleFrame(ingress *netsim.Port, f *netsim.Frame) {
	outs := s.fanout[ingress.Index]
	if len(outs) == 0 {
		s.NoRoute++
		f.Release()
		return
	}
	var group pkt.IP4
	var isMcast bool
	var uf pkt.UDPFrame
	if err := pkt.ParseUDPFrame(f.Data, &uf); err == nil && uf.IP.Dst.IsMulticast() {
		group, isMcast = uf.IP.Dst, true
	}
	s.Forwarded++
	// Count eligible legs so the last one can carry the original frame.
	eligible := 0
	for _, o := range outs {
		if filt := s.subs[o]; len(filt) > 0 && isMcast && !filt[group] {
			continue
		}
		eligible++
	}
	sent := 0
	for _, o := range outs {
		if filt := s.subs[o]; len(filt) > 0 && isMcast && !filt[group] {
			s.FilteredOut++
			continue
		}
		sent++
		ff := f
		if sent < eligible {
			ff = f.Clone()
		}
		if t := ff.Trace; t != nil {
			t.Record(s.Name, trace.CauseSwitching, s.sched.Now().Add(s.cfg.Latency))
		}
		s.sched.AfterArgs(s.cfg.Latency, sim.PrioDeliver, sendFrame, s.ports[o], ff)
	}
	if eligible == 0 {
		f.Release()
	}
}
