package topo

import (
	"fmt"
	"sort"

	"tradenet/internal/device"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// LeafSpineConfig parameterizes Design 1.
type LeafSpineConfig struct {
	Spines       int
	Racks        int
	HostsPerRack int
	// Switch is the hardware profile for every leaf and spine.
	Switch device.CommoditySwitchConfig
	// LinkRate is the fabric link speed.
	LinkRate units.Bandwidth
	// CableDelay is per-link propagation (in-cage copper/fiber runs).
	CableDelay sim.Duration
	// ReconvergeDelay is the control-plane lag between a spine failing (or
	// recovering) and the fabric's routes reflecting it: failure detection,
	// route withdrawal, ECMP rehash, and multicast tree rebuild. Until it
	// elapses, traffic hashed onto the dead spine blackholes — the window
	// the failover experiment measures.
	ReconvergeDelay sim.Duration
}

// DefaultLeafSpineConfig sizes a fabric for the paper's ~1,000-server
// scenario: 32 racks of 32 hosts behind 4 spines.
func DefaultLeafSpineConfig() LeafSpineConfig {
	return LeafSpineConfig{
		Spines:       4,
		Racks:        32,
		HostsPerRack: 32,
		Switch:       device.DefaultCommodityConfig(),
		LinkRate:     units.Rate10G,
		CableDelay:   25 * sim.Nanosecond, // ~5 m of fiber
		// Sub-second reconvergence assumes tuned BFD + ECMP rehash; 1 ms is
		// an aggressive but achievable figure for a fabric this small.
		ReconvergeDelay: sim.Millisecond,
	}
}

// LeafSpine is a two-tier Clos of commodity switches, with one leaf
// dedicated to exchange connectivity ("we will dedicate one ToR to connect
// to the exchanges, so every host on the network is equidistant from the
// exchange", §4.1). Leaf port layout: ports [0, Spines) are uplinks (port s
// to spine s); host ports follow. Spine port layout: port r connects leaf r.
type LeafSpine struct {
	cfg    LeafSpineConfig
	sched  *sim.Scheduler
	Spines []*device.CommoditySwitch
	// Leaves[0] is the exchange leaf; racks are Leaves[1..Racks].
	Leaves []*device.CommoditySwitch

	hostLeaf         map[pkt.MAC]int           // leaf index per attached host
	hostPort         map[pkt.MAC]int           // leaf port per attached host
	hosts            []pkt.MAC                 // attach order, for deterministic re-learning
	nextPort         []int                     // next free host port per leaf
	groupLeafMembers map[pkt.IP4]map[int][]int // group → leaf → member ports
	groups           []pkt.IP4                 // join order, for deterministic rehoming
	groupSpine       map[pkt.IP4]int           // the spine currently carrying each group

	// spineDown marks spines out of service (fault injection).
	spineDown []bool

	// Reconvergences counts completed control-plane reconvergence passes.
	Reconvergences int
}

// NewLeafSpine builds the fabric: every leaf connects to every spine.
func NewLeafSpine(sched *sim.Scheduler, cfg LeafSpineConfig) *LeafSpine {
	t := &LeafSpine{
		cfg:              cfg,
		sched:            sched,
		hostLeaf:         make(map[pkt.MAC]int),
		hostPort:         make(map[pkt.MAC]int),
		groupLeafMembers: make(map[pkt.IP4]map[int][]int),
		groupSpine:       make(map[pkt.IP4]int),
		spineDown:        make([]bool, cfg.Spines),
	}
	nLeaves := cfg.Racks + 1
	for s := 0; s < cfg.Spines; s++ {
		t.Spines = append(t.Spines, device.NewCommoditySwitch(sched, fmt.Sprintf("spine%d", s), nLeaves, cfg.Switch))
	}
	for l := 0; l < nLeaves; l++ {
		name := fmt.Sprintf("leaf%d", l)
		if l == 0 {
			name = "exleaf"
		}
		leaf := device.NewCommoditySwitch(sched, name, cfg.Spines+cfg.HostsPerRack+8, cfg.Switch)
		t.Leaves = append(t.Leaves, leaf)
		t.nextPort = append(t.nextPort, cfg.Spines)
		for s := 0; s < cfg.Spines; s++ {
			netsim.Connect(leaf.Port(s), t.Spines[s].Port(l), cfg.LinkRate, cfg.CableDelay)
		}
	}
	return t
}

// Config returns the fabric configuration.
func (t *LeafSpine) Config() LeafSpineConfig { return t.cfg }

// spineFor picks the (deterministic) spine carrying traffic to dst —
// per-destination ECMP.
func (t *LeafSpine) spineFor(mac pkt.MAC) int {
	return int(mac[5]) % t.cfg.Spines
}

// spineForGroup pins each multicast group to one spine, as a PIM RP
// placement would.
func (t *LeafSpine) spineForGroup(g pkt.IP4) int {
	return int(g[3]) % t.cfg.Spines
}

// nextAliveSpine returns home if it is in service, otherwise the first
// surviving spine probing upward from it — the deterministic rehash both
// unicast ECMP and multicast rehoming use. Returns -1 when every spine is
// down (the fabric is partitioned; routes stay dark).
func (t *LeafSpine) nextAliveSpine(home int) int {
	for i := 0; i < t.cfg.Spines; i++ {
		c := (home + i) % t.cfg.Spines
		if !t.spineDown[c] {
			return c
		}
	}
	return -1
}

// aliveSpineFor is spineFor adjusted for spines out of service.
func (t *LeafSpine) aliveSpineFor(mac pkt.MAC) int {
	return t.nextAliveSpine(t.spineFor(mac))
}

// aliveSpineForGroup is spineForGroup adjusted for spines out of service.
func (t *LeafSpine) aliveSpineForGroup(g pkt.IP4) int {
	return t.nextAliveSpine(t.spineForGroup(g))
}

// Attach wires nic into the given leaf (0 = exchange leaf) and programs
// unicast reachability fabric-wide. It returns the leaf port used.
func (t *LeafSpine) Attach(leaf int, nic *netsim.NIC) int {
	lf := t.Leaves[leaf]
	port := t.nextPort[leaf]
	t.nextPort[leaf]++
	netsim.Connect(lf.Port(port), nic.Port, t.cfg.LinkRate, t.cfg.CableDelay)

	mac := nic.MAC
	t.hostLeaf[mac] = leaf
	t.hostPort[mac] = port
	t.hosts = append(t.hosts, mac)
	// Local leaf: direct port.
	lf.Learn(mac, port)
	// Spines: down to this leaf.
	for s := 0; s < t.cfg.Spines; s++ {
		t.Spines[s].Learn(mac, leaf)
	}
	// Other leaves: up the ECMP spine for this MAC (skipping dead spines).
	up := t.aliveSpineFor(mac)
	for l, other := range t.Leaves {
		if l == leaf || up < 0 {
			continue
		}
		other.Learn(mac, up)
	}
	return port
}

// Join subscribes an attached NIC to a multicast group, installing the
// distribution tree: member ports on its leaf, the group's spine carrying
// it between leaves. It returns false if any switch's mroute table had to
// fall back to software for this group.
func (t *LeafSpine) Join(group pkt.IP4, nic *netsim.NIC) bool {
	leaf, ok := t.hostLeaf[nic.MAC]
	if !ok {
		panic("topo: Join before Attach")
	}
	nic.Join(group)
	port := t.hostPort[nic.MAC]

	members := t.groupLeafMembers[group]
	if members == nil {
		members = make(map[int][]int)
		t.groupLeafMembers[group] = members
		t.groups = append(t.groups, group)
		spine := t.aliveSpineForGroup(group)
		if spine < 0 {
			spine = t.spineForGroup(group) // fabric partitioned: park at home
		}
		t.groupSpine[group] = spine
	}
	members[leaf] = append(members[leaf], port)

	return t.installGroup(group)
}

// installGroup (re)installs the group's tree on every switch touched. The
// tree: every leaf forwards to its member ports plus the uplink to the
// group's spine (so any leaf can source); the spine forwards to every leaf
// with members.
func (t *LeafSpine) installGroup(group pkt.IP4) bool {
	spine := t.groupSpine[group]
	members := t.groupLeafMembers[group]
	inHW := true
	for l, leaf := range t.Leaves {
		for _, p := range members[l] {
			if !leaf.JoinGroup(group, p) {
				inHW = false
			}
		}
		// Uplink so locally sourced frames reach the fabric.
		if !leaf.JoinGroup(group, spine) {
			inHW = false
		}
	}
	// Install spine branches in leaf order, not map order: mroute insertion
	// order decides which entries land in hardware when the table overflows,
	// so iteration order is placement-visible.
	var memberLeaves []int
	for l := range members {
		memberLeaves = append(memberLeaves, l)
	}
	sort.Ints(memberLeaves)
	for _, l := range memberLeaves {
		if !t.Spines[spine].JoinGroup(group, l) {
			inHW = false
		}
	}
	return inHW
}

// FailSpine takes spine s out of service. The data plane reacts at once:
// carrier drops on every fabric link it terminates (frames on those wires
// are lost, sends into them blackhole), the dead device's packet memory is
// purged, and each leaf flushes the egress queue feeding it — interface-down
// queue flush is hardware behaviour, not control plane. Routing does NOT
// react yet: unicast FIBs and multicast trees keep pointing at the corpse
// until a reconvergence pass fires ReconvergeDelay later. That window is the
// blackhole the failover experiment measures.
func (t *LeafSpine) FailSpine(s int) {
	if t.spineDown[s] {
		return
	}
	t.spineDown[s] = true
	t.Spines[s].SetLinksUp(false)
	t.Spines[s].PurgeQueues()
	for _, leaf := range t.Leaves {
		leaf.Port(s).PurgeQueue()
	}
	t.sched.AfterPrio(t.cfg.ReconvergeDelay, sim.PrioControl, t.reconverge)
}

// RecoverSpine returns spine s to service: links come back up immediately,
// and a reconvergence pass ReconvergeDelay later moves routes back onto it.
// Its FIB and mroute tables survived the outage (persistent configuration),
// so rehoming only has to re-point leaf uplinks and prune interim branches.
func (t *LeafSpine) RecoverSpine(s int) {
	if !t.spineDown[s] {
		return
	}
	t.spineDown[s] = false
	t.Spines[s].SetLinksUp(true)
	t.sched.AfterPrio(t.cfg.ReconvergeDelay, sim.PrioControl, t.reconverge)
}

// SpineUp reports whether spine s is in service.
func (t *LeafSpine) SpineUp(s int) bool { return !t.spineDown[s] }

// GroupSpine returns the spine currently carrying group g, or -1 if the
// group has never been joined. Experiments use it to aim a fault at the
// spine a particular feed rides.
func (t *LeafSpine) GroupSpine(g pkt.IP4) int {
	s, ok := t.groupSpine[g]
	if !ok {
		return -1
	}
	return s
}

// reconverge is one completed control-plane pass: every route is re-derived
// against the current set of live spines. Iteration runs over the attach-
// and join-order slices — never over maps — so route programming order (and
// therefore mroute hardware placement) is a pure function of history.
func (t *LeafSpine) reconverge() {
	t.Reconvergences++
	// Unicast: re-point every inter-leaf route at the (possibly rehashed)
	// spine for each host.
	for _, mac := range t.hosts {
		home := t.hostLeaf[mac]
		up := t.aliveSpineFor(mac)
		if up < 0 {
			continue // fabric partitioned: routes stay dark
		}
		for l, other := range t.Leaves {
			if l == home {
				continue
			}
			other.Learn(mac, up)
		}
	}
	// Multicast: rehome each group whose carrying spine is no longer the
	// one the rehash picks (dead, or recovered home spine reclaiming it).
	for _, g := range t.groups {
		want := t.aliveSpineForGroup(g)
		if want < 0 || want == t.groupSpine[g] {
			continue
		}
		t.rehomeGroup(g, t.groupSpine[g], want)
	}
}

// rehomeGroup moves group g's inter-leaf tree from one spine to another:
// tear down the old tree (leaf uplinks toward the old spine, the old
// spine's leaf branches — its table survives outages and must not
// double-deliver once it recovers), then install on the new spine.
func (t *LeafSpine) rehomeGroup(g pkt.IP4, from, to int) {
	for _, leaf := range t.Leaves {
		leaf.LeaveGroup(g, from)
	}
	members := t.groupLeafMembers[g]
	var memberLeaves []int
	for l := range members {
		memberLeaves = append(memberLeaves, l)
	}
	sort.Ints(memberLeaves)
	for _, l := range memberLeaves {
		t.Spines[from].LeaveGroup(g, l)
	}
	t.groupSpine[g] = to
	t.installGroup(g)
}

// SpineFault adapts one spine to the fault package's Switch interface
// (satisfied structurally — topo does not import fault), so a fault.Plan
// can schedule a SwitchOutage on a spine.
type SpineFault struct {
	t *LeafSpine
	s int
}

// SpineFault returns the fault adapter for spine s.
func (t *LeafSpine) SpineFault(s int) SpineFault { return SpineFault{t, s} }

// FaultName identifies the spine in fault logs.
func (sf SpineFault) FaultName() string { return sf.t.Spines[sf.s].Name }

// Fail implements fault.Switch.
func (sf SpineFault) Fail() { sf.t.FailSpine(sf.s) }

// Recover implements fault.Switch.
func (sf SpineFault) Recover() { sf.t.RecoverSpine(sf.s) }

// FabricStats aggregates fault-relevant port counters over every switch in
// the fabric, in fixed (leaves, then spines; port-index) order.
type FabricStats struct {
	Blackholed uint64 // sends attempted into dead links
	Lost       uint64 // frames cut on the wire: link-down and loss draws
	Purged     uint64 // queued frames flushed by device failure
	Drops      uint64 // egress tail drops
}

// FabricStats sums the fabric's port counters.
func (t *LeafSpine) FabricStats() FabricStats {
	var st FabricStats
	add := func(sw *device.CommoditySwitch) {
		for i := 0; i < sw.Ports(); i++ {
			p := sw.Port(i)
			st.Blackholed += p.Blackholed
			st.Lost += p.Lost
			st.Purged += p.Purged
			st.Drops += p.Drops
		}
	}
	for _, sw := range t.Leaves {
		add(sw)
	}
	for _, sw := range t.Spines {
		add(sw)
	}
	return st
}

// ExchangeLeaf returns the dedicated exchange leaf.
func (t *LeafSpine) ExchangeLeaf() *device.CommoditySwitch { return t.Leaves[0] }
