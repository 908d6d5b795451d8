package device

import (
	"testing"

	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
	"tradenet/internal/units"
)

// rig builds a scheduler, a host-like sender port and N receiver sinks wired
// to the given switch ports through 10G zero-length links.
type rig struct {
	sched *sim.Scheduler
	tx    *netsim.Port
	rx    []*sinkPort
}

type sinkPort struct {
	port   *netsim.Port
	frames []*netsim.Frame
	at     []sim.Time
	sched  *sim.Scheduler
}

func (s *sinkPort) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	s.frames = append(s.frames, f)
	s.at = append(s.at, s.sched.Now())
}

func newSink(sched *sim.Scheduler, name string) *sinkPort {
	s := &sinkPort{sched: sched}
	s.port = netsim.NewPort(sched, s, name)
	return s
}

func udpFrame(dst pkt.UDPAddr, n int) *netsim.Frame {
	src := pkt.UDPAddr{MAC: pkt.HostMAC(100), IP: pkt.HostIP(100), Port: 1}
	return &netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 0, make([]byte, n))}
}

func TestCommoditySwitchUnicastLatency(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewCommoditySwitch(sched, "sw", 4, DefaultCommodityConfig())
	tx := netsim.NewPort(sched, nil, "tx")
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	rx := newSink(sched, "rx")
	netsim.Connect(sw.Port(1), rx.port, units.Rate10G, 0)

	dstMAC := pkt.HostMAC(7)
	sw.Learn(dstMAC, 1)
	f := udpFrame(pkt.UDPAddr{MAC: dstMAC, IP: pkt.HostIP(7), Port: 9}, 100)
	wire := len(f.Data)
	sched.At(0, func() { tx.Send(f) })
	sched.Run()

	if len(rx.frames) != 1 {
		t.Fatalf("delivered %d", len(rx.frames))
	}
	// Source serialization (store-and-forward at the NIC) + 500 ns switch
	// latency; the cut-through egress adds no second serialization.
	ser := units.SerializationDelay(pkt.WireSize(wire)+netsim.FrameOverheadBytes, units.Rate10G)
	want := sim.Time(ser + 500*sim.Nanosecond)
	if rx.at[0] != want {
		t.Fatalf("arrival = %v, want %v", rx.at[0], want)
	}
	if sw.Forwarded != 1 {
		t.Fatalf("forwarded = %d", sw.Forwarded)
	}
}

func TestCommoditySwitchUnknownUnicastDropped(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewCommoditySwitch(sched, "sw", 2, DefaultCommodityConfig())
	tx := netsim.NewPort(sched, nil, "tx")
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	f := udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(42), IP: pkt.HostIP(42), Port: 9}, 100)
	sched.At(0, func() { tx.Send(f) })
	sched.Run()
	if sw.UnknownDrops != 1 {
		t.Fatalf("unknown drops = %d", sw.UnknownDrops)
	}
}

func TestCommoditySwitchMulticastFanout(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewCommoditySwitch(sched, "sw", 5, DefaultCommodityConfig())
	tx := netsim.NewPort(sched, nil, "tx")
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	var sinks []*sinkPort
	grp := pkt.MulticastGroup(1, 3)
	for i := 1; i <= 3; i++ {
		s := newSink(sched, "rx")
		netsim.Connect(sw.Port(i), s.port, units.Rate10G, 0)
		if !sw.JoinGroup(grp, i) {
			t.Fatal("join should land in hardware")
		}
		sinks = append(sinks, s)
	}
	f := udpFrame(pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 9}, 200)
	sched.At(0, func() { tx.Send(f) })
	sched.Run()
	for i, s := range sinks {
		if len(s.frames) != 1 {
			t.Fatalf("sink %d got %d frames", i, len(s.frames))
		}
	}
	// Replicas of one ingress frame share its bytes: fan-out copies nothing.
	for i, s := range sinks {
		if got := s.frames[0].Data; len(got) != len(f.Data) || &got[0] != &f.Data[0] {
			t.Fatalf("sink %d: replica does not alias the ingress frame's bytes", i)
		}
	}
	if sw.HardwareGroups() != 1 {
		t.Fatalf("hw groups = %d", sw.HardwareGroups())
	}
}

func TestCommoditySwitchIngressExcludedFromFanout(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewCommoditySwitch(sched, "sw", 3, DefaultCommodityConfig())
	tx := netsim.NewPort(sched, nil, "tx")
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	s := newSink(sched, "rx")
	netsim.Connect(sw.Port(1), s.port, units.Rate10G, 0)
	grp := pkt.MulticastGroup(1, 4)
	sw.JoinGroup(grp, 0) // the source's own port is in the group
	sw.JoinGroup(grp, 1)
	f := udpFrame(pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 9}, 100)
	sched.At(0, func() { tx.Send(f) })
	sched.Run()
	if len(s.frames) != 1 {
		t.Fatalf("sink got %d", len(s.frames))
	}
	if tx.RxFrames != 0 {
		t.Fatal("frame reflected to ingress")
	}
}

func TestMrouteOverflowFallsBackToSoftware(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := DefaultCommodityConfig()
	cfg.MrouteCapacity = 2
	cfg.SoftwareLatency = 50 * sim.Microsecond
	sw := NewCommoditySwitch(sched, "sw", 3, cfg)
	tx := netsim.NewPort(sched, nil, "tx")
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	s := newSink(sched, "rx")
	netsim.Connect(sw.Port(1), s.port, units.Rate10G, 0)

	groups := []pkt.IP4{pkt.MulticastGroup(1, 1), pkt.MulticastGroup(1, 2), pkt.MulticastGroup(1, 3)}
	inHW := []bool{sw.JoinGroup(groups[0], 1), sw.JoinGroup(groups[1], 1), sw.JoinGroup(groups[2], 1)}
	if !inHW[0] || !inHW[1] || inHW[2] {
		t.Fatalf("hardware placement = %v", inHW)
	}
	if sw.SoftwareGroups() != 1 {
		t.Fatalf("software groups = %d", sw.SoftwareGroups())
	}
	// One frame to a hardware group, one to the software group.
	sched.At(0, func() {
		tx.Send(udpFrame(pkt.UDPAddr{MAC: pkt.MulticastMAC(groups[0]), IP: groups[0], Port: 9}, 100))
		tx.Send(udpFrame(pkt.UDPAddr{MAC: pkt.MulticastMAC(groups[2]), IP: groups[2], Port: 9}, 100))
	})
	sched.Run()
	if len(s.frames) != 2 {
		t.Fatalf("delivered %d", len(s.frames))
	}
	// The software-path copy arrives ~100x later.
	hwAt, swAt := s.at[0], s.at[1]
	if swAt < hwAt+sim.Time(40*sim.Microsecond) {
		t.Fatalf("software path too fast: hw=%v sw=%v", hwAt, swAt)
	}
	if sw.SoftForwarded != 1 {
		t.Fatalf("soft forwarded = %d", sw.SoftForwarded)
	}
}

func TestSoftwarePathDropsUnderLoad(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := DefaultCommodityConfig()
	cfg.MrouteCapacity = 0 // everything overflows
	cfg.SoftwarePPS = 1000
	sw := NewCommoditySwitch(sched, "sw", 3, cfg)
	tx := netsim.NewPort(sched, nil, "tx")
	tx.SetQueueCapacity(1 << 26)
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	s := newSink(sched, "rx")
	netsim.Connect(sw.Port(1), s.port, units.Rate10G, 0)
	grp := pkt.MulticastGroup(1, 9)
	if sw.JoinGroup(grp, 1) {
		t.Fatal("join should overflow with capacity 0")
	}
	sched.At(0, func() {
		for i := 0; i < 500; i++ {
			tx.Send(udpFrame(pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 9}, 100))
		}
	})
	sched.Run()
	// At 10G a 100B frame arrives every ~100 ns; the 1000 PPS software path
	// with a 16-frame backlog forwards a tiny fraction and drops the rest —
	// "heavy packet loss".
	if sw.SoftDrops < 400 {
		t.Fatalf("soft drops = %d, want heavy loss", sw.SoftDrops)
	}
	if got := len(s.frames); got > 50 {
		t.Fatalf("delivered %d through a 1000-PPS software path in ~50µs", got)
	}
}

func TestL1SwitchFanoutLatency(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewL1Switch(sched, "l1s", 4, DefaultL1SConfig())
	tx := netsim.NewPort(sched, nil, "tx")
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	a, b := newSink(sched, "a"), newSink(sched, "b")
	netsim.Connect(sw.Port(1), a.port, units.Rate10G, 0)
	netsim.Connect(sw.Port(2), b.port, units.Rate10G, 0)
	sw.Circuit(0, 1, 2)

	var stamped int
	sw.Timestamp = func(in int, _ *netsim.Frame, at sim.Time) {
		stamped++
		if in != 0 {
			t.Errorf("timestamp ingress = %d", in)
		}
	}
	f := udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(50), IP: pkt.HostIP(50), Port: 9}, 100)
	wire := len(f.Data)
	sched.At(0, func() { tx.Send(f) })
	sched.Run()

	ser := units.SerializationDelay(pkt.WireSize(wire)+netsim.FrameOverheadBytes, units.Rate10G)
	want := sim.Time(ser + 5*sim.Nanosecond)
	for _, s := range []*sinkPort{a, b} {
		if len(s.frames) != 1 || s.at[0] != want {
			t.Fatalf("fanout arrival = %v, want %v", s.at, want)
		}
	}
	if stamped != 1 {
		t.Fatalf("stamped = %d", stamped)
	}
	if sw.IsMergeOutput(1) || sw.IsMergeOutput(2) {
		t.Fatal("single-feeder outputs misclassified as merge")
	}
}

func TestL1SwitchMergeAddsLatencyAndContention(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewL1Switch(sched, "l1s", 4, DefaultL1SConfig())
	tx1 := netsim.NewPort(sched, nil, "tx1")
	tx2 := netsim.NewPort(sched, nil, "tx2")
	netsim.Connect(tx1, sw.Port(0), units.Rate10G, 0)
	netsim.Connect(tx2, sw.Port(1), units.Rate10G, 0)
	out := newSink(sched, "out")
	netsim.Connect(sw.Port(2), out.port, units.Rate10G, 0)
	sw.Circuit(0, 2)
	sw.Circuit(1, 2)
	if !sw.IsMergeOutput(2) {
		t.Fatal("port 2 should be a merge output")
	}

	f1 := udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(51), IP: pkt.HostIP(51), Port: 9}, 500)
	f2 := udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(51), IP: pkt.HostIP(51), Port: 9}, 500)
	sched.At(0, func() { tx1.Send(f1); tx2.Send(f2) })
	sched.Run()

	if len(out.frames) != 2 {
		t.Fatalf("merged %d frames", len(out.frames))
	}
	ser := sim.Time(units.SerializationDelay(pkt.WireSize(len(f1.Data))+netsim.FrameOverheadBytes, units.Rate10G))
	first := ser + sim.Time(55*sim.Nanosecond) // 5 ns fanout + 50 ns merge
	if out.at[0] != first {
		t.Fatalf("first merged frame at %v, want %v", out.at[0], first)
	}
	// The second frame contends for the merged egress line: it waits one
	// full serialization behind the first.
	if out.at[1] != first+ser {
		t.Fatalf("second merged frame at %v, want %v", out.at[1], first+ser)
	}
}

func TestL1SwitchNoRouteCounts(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewL1Switch(sched, "l1s", 2, DefaultL1SConfig())
	tx := netsim.NewPort(sched, nil, "tx")
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
	sched.At(0, func() { tx.Send(udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 1}, 50)) })
	sched.Run()
	if sw.NoRoute != 1 {
		t.Fatalf("no-route = %d", sw.NoRoute)
	}
}

func TestCloudEqualizerDeliversSimultaneously(t *testing.T) {
	sched := sim.NewScheduler(1)
	lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
	eq := NewCloudEqualizer(sched, "cloud", lats, DefaultCloudConfig())
	ex := netsim.NewPort(sched, nil, "exchange")
	netsim.Connect(ex, eq.ExchangePort(), units.Rate10G, 0)
	var sinks []*sinkPort
	for i := 1; i <= 3; i++ {
		s := newSink(sched, "tenant")
		netsim.Connect(eq.TenantPort(i), s.port, units.Rate10G, 0)
		sinks = append(sinks, s)
	}
	f := udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(60), IP: pkt.HostIP(60), Port: 9}, 100)
	sched.At(0, func() { ex.Send(f) })
	sched.Run()
	if eq.Tenants() != 3 {
		t.Fatalf("tenants = %d", eq.Tenants())
	}
	at0 := sinks[0].at[0]
	for i, s := range sinks {
		if len(s.frames) != 1 {
			t.Fatalf("tenant %d frames = %d", i, len(s.frames))
		}
		if s.at[0] != at0 {
			t.Fatalf("delivery skew: tenant %d at %v vs %v", i, s.at[0], at0)
		}
	}
	// Equalized delivery pays base + slowest path.
	ser := sim.Time(units.SerializationDelay(pkt.WireSize(len(f.Data))+netsim.FrameOverheadBytes, units.Rate10G))
	want := ser + sim.Time(50*sim.Microsecond+20*sim.Microsecond)
	if at0 != want {
		t.Fatalf("delivery at %v, want %v", at0, want)
	}
}

func TestCloudWithoutEqualizationIsFastButUnfair(t *testing.T) {
	sched := sim.NewScheduler(1)
	lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond}
	cfg := DefaultCloudConfig()
	cfg.Equalize = false
	eq := NewCloudEqualizer(sched, "cloud", lats, cfg)
	ex := netsim.NewPort(sched, nil, "exchange")
	netsim.Connect(ex, eq.ExchangePort(), units.Rate10G, 0)
	s1, s2 := newSink(sched, "t1"), newSink(sched, "t2")
	netsim.Connect(eq.TenantPort(1), s1.port, units.Rate10G, 0)
	netsim.Connect(eq.TenantPort(2), s2.port, units.Rate10G, 0)
	sched.At(0, func() { ex.Send(udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(61), IP: pkt.HostIP(61), Port: 9}, 100)) })
	sched.Run()
	if s1.at[0] >= s2.at[0] {
		t.Fatal("closer tenant should win without equalization")
	}
	if skew := s2.at[0].Sub(s1.at[0]); skew != 15*sim.Microsecond {
		t.Fatalf("skew = %v, want 15µs", skew)
	}
}

func TestCloudTenantToExchangeEqualized(t *testing.T) {
	sched := sim.NewScheduler(1)
	lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond}
	eq := NewCloudEqualizer(sched, "cloud", lats, DefaultCloudConfig())
	ex := newSink(sched, "exchange")
	netsim.Connect(ex.port, eq.ExchangePort(), units.Rate10G, 0)
	t1 := netsim.NewPort(sched, nil, "t1")
	t2 := netsim.NewPort(sched, nil, "t2")
	netsim.Connect(t1, eq.TenantPort(1), units.Rate10G, 0)
	netsim.Connect(t2, eq.TenantPort(2), units.Rate10G, 0)
	// Both tenants fire an order at the same instant: equalization makes
	// them reach the exchange at the same time despite different paths.
	sched.At(0, func() {
		t1.Send(udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(62), IP: pkt.HostIP(62), Port: 9}, 80))
		t2.Send(udpFrame(pkt.UDPAddr{MAC: pkt.HostMAC(62), IP: pkt.HostIP(62), Port: 9}, 80))
	})
	sched.Run()
	if len(ex.frames) != 2 {
		t.Fatalf("exchange got %d", len(ex.frames))
	}
	// Arrivals serialize on the exchange link but the transit delay is
	// equal, so the gap is exactly one serialization time.
	ser := sim.Time(units.SerializationDelay(pkt.WireSize(122)+netsim.FrameOverheadBytes, units.Rate10G))
	if gap := ex.at[1].Sub(ex.at[0]); gap != sim.Duration(ser) {
		t.Fatalf("gap = %v, want %v", gap, sim.Duration(ser))
	}
}

func TestGenerationTrendsMatchPaper(t *testing.T) {
	// §3: latency up ~20% over a decade, to ~500 ns.
	if g := LatencyGrowth(); g < 1.15 || g > 1.25 {
		t.Fatalf("latency growth = %.2f, want ~1.2", g)
	}
	latest := Generations[len(Generations)-1]
	if latest.Latency != 500*sim.Nanosecond {
		t.Fatalf("latest latency = %v", latest.Latency)
	}
	// §3: multicast groups only ~80% more.
	if g := McastGroupGrowth(); g < 1.7 || g > 1.9 {
		t.Fatalf("mcast growth = %.2f, want ~1.8", g)
	}
	// §3: bandwidth roughly doubles per generation.
	if g := BandwidthGrowth(); g < 8 || g > 12 {
		t.Fatalf("bandwidth growth = %.1f, want ~10x over 3 generations", g)
	}
	cfg := latest.Config()
	if cfg.MrouteCapacity != latest.McastGroups || cfg.Latency != latest.Latency {
		t.Fatal("Config() does not reflect generation")
	}
}

func TestConfigValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-latency switch should panic")
		}
	}()
	NewCommoditySwitch(sched, "bad", 2, CommoditySwitchConfig{})
}

func TestCommoditySwitchLeaveGroup(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewCommoditySwitch(sched, "sw", 4, DefaultCommodityConfig())
	grp := pkt.MulticastGroup(1, 1)
	sw.JoinGroup(grp, 1)
	sw.JoinGroup(grp, 2)
	if sw.HardwareGroups() != 1 {
		t.Fatalf("hw groups = %d", sw.HardwareGroups())
	}
	sw.LeaveGroup(grp, 1)
	// Still one member: entry persists.
	if sw.HardwareGroups() != 1 {
		t.Fatal("entry should persist while members remain")
	}
	sw.LeaveGroup(grp, 2)
	// Last member gone: slot reclaimed.
	if sw.HardwareGroups() != 0 {
		t.Fatal("empty group should free its slot")
	}
	// The slot is genuinely reusable.
	cfg := DefaultCommodityConfig()
	cfg.MrouteCapacity = 1
	sw2 := NewCommoditySwitch(sched, "sw2", 3, cfg)
	g1, g2 := pkt.MulticastGroup(1, 5), pkt.MulticastGroup(1, 6)
	if !sw2.JoinGroup(g1, 1) {
		t.Fatal("first join should fit")
	}
	if sw2.JoinGroup(g2, 1) {
		t.Fatal("second join should overflow")
	}
	sw2.LeaveGroup(g1, 1)
	if !sw2.JoinGroup(pkt.MulticastGroup(1, 7), 1) {
		t.Fatal("freed slot should be reusable")
	}
	// Leaving a group in the software table removes it there.
	sw2.LeaveGroup(g2, 1)
	if sw2.SoftwareGroups() != 0 {
		t.Fatalf("software groups = %d after leave", sw2.SoftwareGroups())
	}
	// Leave of unknown group/port is a no-op.
	sw2.LeaveGroup(pkt.MulticastGroup(1, 99), 1)
}

func TestL1SwitchReplacingCircuitClearsMerge(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewL1Switch(sched, "l1s", 4, DefaultL1SConfig())
	sw.Circuit(0, 2)
	sw.Circuit(1, 2)
	if !sw.IsMergeOutput(2) {
		t.Fatal("merge expected")
	}
	// Re-pointing input 1 away removes the merge condition.
	sw.Circuit(1, 3)
	if sw.IsMergeOutput(2) || sw.IsMergeOutput(3) {
		t.Fatal("merge state should recompute")
	}
}

func TestDeviceAccessors(t *testing.T) {
	sched := sim.NewScheduler(1)
	sw := NewCommoditySwitch(sched, "sw", 4, DefaultCommodityConfig())
	if sw.Ports() != 4 || sw.Config().Latency != 500*sim.Nanosecond {
		t.Fatal("commodity accessors")
	}
	l1 := NewL1Switch(sched, "l1", 6, DefaultL1SConfig())
	if l1.Ports() != 6 || l1.Config().FanoutLatency != 5*sim.Nanosecond {
		t.Fatal("l1s accessors")
	}
	fl := NewFilteringL1Switch(sched, "fl", 2, DefaultFilteringL1Config())
	if fl.Config().Latency != 100*sim.Nanosecond {
		t.Fatal("filtering l1s accessors")
	}
}

// TestFanOutSharesOneFrame pins what a replica is at the two big
// replication points: an untraced datagram reaches all 32 receivers as the
// one *netsim.Frame that entered the device, a traced one as 32 distinct
// frames (31 headers with forked traces, and the original) — and the bytes
// are never copied either way.
func TestFanOutSharesOneFrame(t *testing.T) {
	const legs = 32
	grp := pkt.MulticastGroup(1, 3)
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 9}
	devices := map[string]func(*sim.Scheduler) (in *netsim.Port, outs []*netsim.Port){
		"commodity": func(sched *sim.Scheduler) (*netsim.Port, []*netsim.Port) {
			sw := NewCommoditySwitch(sched, "sw", legs+1, DefaultCommodityConfig())
			var outs []*netsim.Port
			for i := 1; i <= legs; i++ {
				sw.JoinGroup(grp, i)
				outs = append(outs, sw.Port(i))
			}
			return sw.Port(0), outs
		},
		"l1s": func(sched *sim.Scheduler) (*netsim.Port, []*netsim.Port) {
			sw := NewL1Switch(sched, "l1s", legs+1, DefaultL1SConfig())
			var outs []*netsim.Port
			var idx []int
			for i := 1; i <= legs; i++ {
				idx = append(idx, i)
				outs = append(outs, sw.Port(i))
			}
			sw.Circuit(0, idx...)
			return sw.Port(0), outs
		},
	}
	for name, build := range devices {
		for _, traced := range []bool{false, true} {
			sched := sim.NewScheduler(1)
			in, outs := build(sched)
			tx := netsim.NewPort(sched, nil, "tx")
			netsim.Connect(tx, in, units.Rate10G, 0)
			var sinks []*sinkPort
			for _, out := range outs {
				s := newSink(sched, "rx")
				netsim.Connect(out, s.port, units.Rate10G, 0)
				sinks = append(sinks, s)
			}
			f := netsim.NewFrame()
			f.Data = pkt.AppendUDPFrame(f.Data, pkt.UDPAddr{MAC: pkt.HostMAC(100), IP: pkt.HostIP(100), Port: 1}, dst, 0, make([]byte, 200))
			if traced {
				f.Trace = trace.NewRecorder(1, 2*legs).Start(0)
			}
			tx.Send(f)
			sched.Run()

			distinct := map[*netsim.Frame]bool{}
			for i, s := range sinks {
				if len(s.frames) != 1 {
					t.Fatalf("%s, traced %v: sink %d got %d frames", name, traced, i, len(s.frames))
				}
				got := s.frames[0]
				if len(got.Data) != len(f.Data) || &got.Data[0] != &f.Data[0] {
					t.Fatalf("%s, traced %v: sink %d's frame does not alias the ingress frame's bytes", name, traced, i)
				}
				if traced && got.Trace == nil {
					t.Fatalf("%s: sink %d's leg of a traced frame lost its trace", name, i)
				}
				distinct[got] = true
			}
			if want := map[bool]int{false: 1, true: legs}[traced]; len(distinct) != want || !distinct[f] {
				t.Fatalf("%s, traced %v: %d sinks hold %d distinct frames (the original among them: %v), want %d",
					name, traced, legs, len(distinct), distinct[f], want)
			}
			for _, s := range sinks {
				s.frames[0].Release()
			}
		}
	}
}
