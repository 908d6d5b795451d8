package netsim

import (
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// NIC is a host network interface: a port plus address filtering and
// multicast subscriptions. Servers in a trading plant have several NICs
// with distinct roles — management, market data, orders (paper Fig. 1d) —
// so a Host owns a set of named NICs.
type NIC struct {
	Port *Port
	MAC  pkt.MAC
	IP   pkt.IP4

	host *Host
	// groups is the set of joined multicast MACs, each packed into a uint64
	// (macKey) and kept sorted: the filter runs on every multicast frame the
	// NIC sees, and a NIC joins a handful of groups, so an ordered scan of one
	// cache line beats a hash probe into a map that is cold per NIC.
	groups []uint64

	// Promiscuous disables destination filtering (tap/capture NICs).
	Promiscuous bool

	// Filtered counts frames dropped by address filtering — the NIC-level
	// discard work that §3's "Implications" paragraph discusses placing
	// in-process versus on a middlebox.
	Filtered uint64

	// OnFrame receives accepted frames. If nil, frames are counted and
	// dropped.
	OnFrame func(nic *NIC, f *Frame)
}

// Join subscribes the NIC to an IP multicast group (IGMP join in spirit).
func (n *NIC) Join(group pkt.IP4) {
	k := macKey(pkt.MulticastMAC(group))
	i, joined := n.findGroup(k)
	if joined {
		return
	}
	n.groups = append(n.groups, 0)
	copy(n.groups[i+1:], n.groups[i:])
	n.groups[i] = k
}

// findGroup scans the sorted keys up to the first one ≥ k: its position is
// where k is if joined, and where it belongs if not.
func (n *NIC) findGroup(k uint64) (i int, joined bool) {
	for i, g := range n.groups {
		if g >= k {
			return i, g == k
		}
	}
	return len(n.groups), false
}

// macKey packs a MAC into the low 48 bits of a uint64.
func macKey(m pkt.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// Subscriptions returns the number of joined groups.
func (n *NIC) Subscriptions() int { return len(n.groups) }

// Addr returns the NIC's UDP address with the given port number.
func (n *NIC) Addr(port uint16) pkt.UDPAddr {
	return pkt.UDPAddr{MAC: n.MAC, IP: n.IP, Port: port}
}

// accepts applies destination filtering.
func (n *NIC) accepts(dst pkt.MAC) bool {
	if n.Promiscuous || dst == n.MAC {
		return true
	}
	if dst.IsMulticast() {
		_, joined := n.findGroup(macKey(dst))
		return joined
	}
	return false
}

// Host is a server with one or more NICs. Frame dispatch to the application
// happens after a configurable software receive latency, modelling the
// kernel-bypass stack the paper assumes (~1 µs per software hop, §3).
type Host struct {
	Name  string
	sched *sim.Scheduler
	nics  []*NIC

	// RxLatency is the software receive path cost applied between frame
	// arrival and the application callback.
	RxLatency sim.Duration
}

// NewHost creates a host with no NICs.
func NewHost(sched *sim.Scheduler, name string) *Host {
	return &Host{Name: name, sched: sched}
}

// Scheduler returns the host's scheduler (for app-level timers).
func (h *Host) Scheduler() *sim.Scheduler { return h.sched }

// AddNIC attaches a new NIC with addresses derived from id.
func (h *Host) AddNIC(name string, id uint32) *NIC {
	n := &NIC{MAC: pkt.HostMAC(id), IP: pkt.HostIP(id), host: h}
	n.Port = NewPort(h.sched, (*hostHandler)(h), h.Name+"/"+name)
	h.nics = append(h.nics, n)
	return n
}

// NICs returns the host's interfaces.
func (h *Host) NICs() []*NIC { return h.nics }

// hostHandler adapts Host to the Handler interface without exposing
// HandleFrame on Host's public API.
type hostHandler Host

// HandleFrame implements Handler: filter by NIC address, charge the
// software receive latency, then deliver to the application. Filtered and
// unconsumed frames terminate here and return to the pool; frames handed to
// OnFrame are owned by the application (which may retain them past the
// callback), so they are never auto-released.
func (hh *hostHandler) HandleFrame(ingress *Port, f *Frame) {
	h := (*Host)(hh)
	var nic *NIC
	for _, n := range h.nics {
		if n.Port == ingress {
			nic = n
			break
		}
	}
	if nic == nil {
		f.Release()
		return
	}
	var eth pkt.Ethernet
	if _, err := eth.Decode(f.Data); err != nil {
		nic.Filtered++
		f.Release()
		return
	}
	if !nic.accepts(eth.Dst) {
		nic.Filtered++
		f.Release()
		return
	}
	if nic.OnFrame == nil {
		f.Release()
		return
	}
	if h.RxLatency <= 0 {
		nic.OnFrame(nic, f)
		return
	}
	h.sched.AfterArgs(h.RxLatency, sim.PrioDeliver, deliverToNIC, nic, f)
}

// deliverToNIC runs a deferred application delivery, scheduled closure-free.
func deliverToNIC(a, b any) {
	nic := a.(*NIC)
	nic.OnFrame(nic, b.(*Frame))
}

// Send transmits a frame out of the NIC, stamping Origin if unset.
func (n *NIC) Send(f *Frame) bool {
	if f.Origin == 0 {
		f.Origin = n.host.sched.Now()
	}
	return n.Port.Send(f)
}
