package topo

import (
	"testing"

	"tradenet/internal/device"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

func smallLeafSpine(sched *sim.Scheduler) LeafSpineConfig {
	cfg := DefaultLeafSpineConfig()
	cfg.Racks = 3
	cfg.HostsPerRack = 4
	cfg.Spines = 2
	return cfg
}

func TestLeafSpineWiringAndGraph(t *testing.T) {
	sched := sim.NewScheduler(1)
	ls := NewLeafSpine(sched, smallLeafSpine(sched))
	if len(ls.Leaves) != 4 || len(ls.Spines) != 2 {
		t.Fatalf("leaves=%d spines=%d", len(ls.Leaves), len(ls.Spines))
	}
	// The graph is complete bipartite: leaf l's port s is cabled to spine
	// s's port l, so any two leaves are two hops apart via any spine.
	for l, leaf := range ls.Leaves {
		for s, spine := range ls.Spines {
			if leaf.Port(s).Peer() != spine.Port(l) {
				t.Fatalf("leaf %d port %d is not cabled to spine %d port %d", l, s, s, l)
			}
		}
	}
	if ls.ExchangeLeaf() != ls.Leaves[0] {
		t.Fatal("exchange leaf is leaf 0")
	}
}

func TestLeafSpineUnicastAcrossFabric(t *testing.T) {
	sched := sim.NewScheduler(1)
	ls := NewLeafSpine(sched, smallLeafSpine(sched))

	h1 := netsim.NewHost(sched, "h1")
	h2 := netsim.NewHost(sched, "h2")
	n1 := h1.AddNIC("x", 1)
	n2 := h2.AddNIC("x", 2)
	ls.Attach(1, n1)
	ls.Attach(3, n2)

	var gotAt sim.Time
	n2.OnFrame = func(_ *netsim.NIC, f *netsim.Frame) { gotAt = sched.Now() }
	payload := make([]byte, 100)
	sched.At(0, func() {
		n1.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, n1.Addr(1), n2.Addr(2), 0, payload)))
	})
	sched.Run()
	if gotAt == 0 {
		t.Fatal("frame not delivered across fabric")
	}
	// Path: NIC ser + 4 cable hops (host-leaf, leaf-spine, spine-leaf,
	// leaf-host) + 3 switch latencies of 500ns.
	minLatency := sim.Time(3 * 500 * sim.Nanosecond)
	if gotAt < minLatency {
		t.Fatalf("arrival %v faster than 3 switch hops", gotAt)
	}
}

func TestLeafSpineMulticastTree(t *testing.T) {
	sched := sim.NewScheduler(1)
	ls := NewLeafSpine(sched, smallLeafSpine(sched))

	src := netsim.NewHost(sched, "src")
	sn := src.AddNIC("md", 10)
	ls.Attach(0, sn) // exchange leaf

	grp := pkt.MulticastGroup(1, 5)
	var rx []int
	for i := 0; i < 3; i++ {
		h := netsim.NewHost(sched, "sub")
		n := h.AddNIC("md", uint32(20+i))
		ls.Attach(1+i, n) // one subscriber per rack
		idx := i
		n.OnFrame = func(*netsim.NIC, *netsim.Frame) { rx = append(rx, idx) }
		if !ls.Join(grp, n) {
			t.Fatal("join fell back to software unexpectedly")
		}
	}

	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 30001}
	sched.At(0, func() {
		sn.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, sn.Addr(30001), dst, 0, make([]byte, 64))))
	})
	sched.Run()
	if len(rx) != 3 {
		t.Fatalf("subscribers reached = %v", rx)
	}
}

func TestLeafSpineMulticastNoDuplicates(t *testing.T) {
	// A subscriber on the same leaf as the source must receive exactly one
	// copy despite the uplink entry.
	sched := sim.NewScheduler(1)
	ls := NewLeafSpine(sched, smallLeafSpine(sched))
	src := netsim.NewHost(sched, "src")
	sn := src.AddNIC("md", 10)
	ls.Attach(1, sn)
	sub := netsim.NewHost(sched, "sub")
	un := sub.AddNIC("md", 11)
	ls.Attach(1, un)
	grp := pkt.MulticastGroup(1, 6)
	ls.Join(grp, un)
	got := 0
	un.OnFrame = func(*netsim.NIC, *netsim.Frame) { got++ }
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 30001}
	sched.At(0, func() {
		sn.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, sn.Addr(30001), dst, 0, make([]byte, 64))))
	})
	sched.Run()
	if got != 1 {
		t.Fatalf("same-leaf subscriber got %d copies", got)
	}
}

func TestLeafSpineMrouteAccounting(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := smallLeafSpine(sched)
	cfg.Switch.MrouteCapacity = 3
	ls := NewLeafSpine(sched, cfg)
	h := netsim.NewHost(sched, "sub")
	n := h.AddNIC("md", 30)
	ls.Attach(1, n)
	// Every join lands the group on all 4 leaves (uplink entries) — table
	// pressure grows fabric-wide, not per-subscriber.
	for i := 0; i < 3; i++ {
		if !ls.Join(pkt.MulticastGroup(1, uint16(i)), n) {
			t.Fatalf("group %d should fit (capacity 3)", i)
		}
	}
	softwareGroups := func() (n int) {
		for _, sw := range append(append([]*device.CommoditySwitch{}, ls.Leaves...), ls.Spines...) {
			n += sw.SoftwareGroups()
		}
		return n
	}
	if softwareGroups() != 0 {
		t.Fatal("no overflow expected yet")
	}
	if ls.Join(pkt.MulticastGroup(1, 99), n) {
		t.Fatal("fourth group should not fit in hardware")
	}
	if softwareGroups() == 0 {
		t.Fatal("fourth group should overflow the 3-entry tables")
	}
	if ls.Leaves[1].HardwareGroups() != 3 {
		t.Fatalf("leaf 1 holds %d groups in hardware, want 3", ls.Leaves[1].HardwareGroups())
	}
}

func TestL1FabricFourNetworks(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := DefaultL1FabricConfig()
	cfg.Ports = 8
	f := NewL1Fabric(sched, cfg)
	for _, sw := range []*device.L1Switch{f.ExToNorm, f.NormToStrat, f.StratToGw, f.GwToEx} {
		if sw == nil || sw.Ports() != 8 {
			t.Fatal("four switches must exist with configured ports")
		}
	}
}

func TestL1FabricEndToEndLatency(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := DefaultL1FabricConfig()
	cfg.Ports = 8
	cfg.CableDelay = 0
	f := NewL1Fabric(sched, cfg)

	ex := netsim.NewHost(sched, "ex")
	exNIC := ex.AddNIC("md", 40)
	norm := netsim.NewHost(sched, "norm")
	normNIC := norm.AddNIC("raw", 41)
	normNIC.Promiscuous = true

	in := f.AttachSource(f.ExToNorm, exNIC)
	out := f.AttachSink(f.ExToNorm, normNIC)
	f.Deliver(f.ExToNorm, in, out)

	var at sim.Time
	normNIC.OnFrame = func(*netsim.NIC, *netsim.Frame) { at = sched.Now() }
	payload := make([]byte, 100)
	frame := pkt.AppendUDPFrame(nil, exNIC.Addr(1), pkt.UDPAddr{MAC: pkt.HostMAC(41), IP: pkt.HostIP(41), Port: 2}, 0, payload)
	sched.At(0, func() { exNIC.Send(netsim.NewFrameBytes(frame)) })
	sched.Run()

	ser := sim.Time(units.SerializationDelay(pkt.WireSize(len(frame))+netsim.FrameOverheadBytes, units.Rate10G))
	want := ser + sim.Time(5*sim.Nanosecond)
	if at != want {
		t.Fatalf("arrival = %v, want %v (ser + 5ns)", at, want)
	}
}

func TestL1FabricMergeViaSharedOutput(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := DefaultL1FabricConfig()
	cfg.Ports = 8
	f := NewL1Fabric(sched, cfg)
	// Two normalizer inputs merged onto one strategy NIC.
	n1 := netsim.NewHost(sched, "n1").AddNIC("pub", 50)
	n2 := netsim.NewHost(sched, "n2").AddNIC("pub", 51)
	st := netsim.NewHost(sched, "st").AddNIC("md", 52)
	st.Promiscuous = true
	i1 := f.AttachSource(f.NormToStrat, n1)
	i2 := f.AttachSource(f.NormToStrat, n2)
	o := f.AttachSink(f.NormToStrat, st)
	f.Deliver(f.NormToStrat, i1, o)
	f.Deliver(f.NormToStrat, i2, o)
	if !f.NormToStrat.IsMergeOutput(o) {
		t.Fatal("shared output should be a merge port")
	}
	got := 0
	st.OnFrame = func(*netsim.NIC, *netsim.Frame) { got++ }
	mk := func(nic *netsim.NIC) []byte {
		return pkt.AppendUDPFrame(nil, nic.Addr(1), pkt.UDPAddr{MAC: pkt.HostMAC(52), IP: pkt.HostIP(52), Port: 2}, 0, make([]byte, 64))
	}
	sched.At(0, func() { n1.Send(netsim.NewFrameBytes(mk(n1))); n2.Send(netsim.NewFrameBytes(mk(n2))) })
	sched.Run()
	if got != 2 {
		t.Fatalf("merged frames = %d", got)
	}
}
