package topo

import (
	"testing"

	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// Spine-failure tests: a dead spine blackholes routed traffic until the
// control plane reconverges; after reconvergence every pre-fault subscriber
// receives again via a surviving spine; recovery rehomes routes back.

// mcastFixture: source on the exchange leaf, one subscriber per rack, all
// joined to one group. counts[i] tallies deliveries per subscriber.
type mcastFixture struct {
	ls     *LeafSpine
	sn     *netsim.NIC
	grp    pkt.IP4
	dst    pkt.UDPAddr
	counts []int
}

func newMcastFixture(sched *sim.Scheduler) *mcastFixture {
	ls := NewLeafSpine(sched, smallLeafSpine(sched))
	src := netsim.NewHost(sched, "src")
	fx := &mcastFixture{
		ls:     ls,
		sn:     src.AddNIC("md", 10),
		grp:    pkt.MulticastGroup(1, 5),
		counts: make([]int, 3),
	}
	ls.Attach(0, fx.sn)
	for i := 0; i < 3; i++ {
		h := netsim.NewHost(sched, "sub")
		n := h.AddNIC("md", uint32(20+i))
		ls.Attach(1+i, n)
		idx := i
		n.OnFrame = func(*netsim.NIC, *netsim.Frame) { fx.counts[idx]++ }
		ls.Join(fx.grp, n)
	}
	fx.dst = pkt.UDPAddr{MAC: pkt.MulticastMAC(fx.grp), IP: fx.grp, Port: 30001}
	return fx
}

func (fx *mcastFixture) send() {
	fx.sn.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, fx.sn.Addr(30001), fx.dst, 0, make([]byte, 64))))
}

func (fx *mcastFixture) wantCounts(t *testing.T, phase string, want int) {
	t.Helper()
	for i, c := range fx.counts {
		if c != want {
			t.Fatalf("%s: subscriber %d received %d frames, want %d (counts %v)", phase, i, c, want, fx.counts)
		}
	}
}

func TestLeafSpineSpineFailureReconvergesMulticast(t *testing.T) {
	sched := sim.NewScheduler(1)
	fx := newMcastFixture(sched)
	ls := fx.ls
	home := ls.groupSpine[fx.grp]
	other := (home + 1) % 2

	delay := ls.Config().ReconvergeDelay
	failAt := sim.Time(100 * sim.Microsecond)

	sched.At(0, fx.send) // healthy: everyone receives
	sched.At(failAt, func() { ls.FailSpine(home) })
	// Inside the blackhole window: routes still point at the corpse.
	sched.At(failAt.Add(10*sim.Microsecond), fx.send)
	// After reconvergence: the group must be rehomed onto the survivor.
	sched.At(failAt.Add(2*delay), func() {
		if got := ls.groupSpine[fx.grp]; got != other {
			t.Errorf("group still homed on spine %d after reconvergence, want %d", got, other)
		}
		if ls.Reconvergences != 1 {
			t.Errorf("Reconvergences = %d, want 1", ls.Reconvergences)
		}
		fx.send()
	})
	sched.Run()

	fx.wantCounts(t, "post-reconvergence", 2) // healthy + rehomed; blackholed burst lost
	if bh := ls.FabricStats().Blackholed; bh == 0 {
		t.Fatal("blackhole-window frames not counted in FabricStats().Blackholed")
	}

	// Recovery: links up immediately, rehome back after another delay.
	recoverAt := sim.Time(sim.Duration(10) * sim.Millisecond)
	sched.At(recoverAt, func() { ls.RecoverSpine(home) })
	sched.At(recoverAt.Add(2*delay), func() {
		if got := ls.groupSpine[fx.grp]; got != home {
			t.Errorf("group not rehomed to recovered spine %d (on %d)", home, got)
		}
		fx.send()
	})
	sched.Run()
	fx.wantCounts(t, "post-recovery", 3) // exactly one copy each: no double-delivery
}

func TestLeafSpineSpineFailureRehashesUnicast(t *testing.T) {
	sched := sim.NewScheduler(1)
	ls := NewLeafSpine(sched, smallLeafSpine(sched))
	n1 := netsim.NewHost(sched, "h1").AddNIC("x", 1)
	n2 := netsim.NewHost(sched, "h2").AddNIC("x", 2)
	ls.Attach(1, n1)
	ls.Attach(3, n2)

	got := 0
	n2.OnFrame = func(*netsim.NIC, *netsim.Frame) { got++ }
	send := func() {
		n1.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, n1.Addr(1), n2.Addr(2), 0, make([]byte, 100))))
	}

	victim := ls.spineFor(n2.MAC) // the ECMP spine carrying n1→n2
	delay := ls.Config().ReconvergeDelay
	failAt := sim.Time(100 * sim.Microsecond)

	sched.At(0, send)
	sched.At(failAt, func() { ls.FailSpine(victim) })
	sched.At(failAt.Add(10*sim.Microsecond), send) // blackholed at leaf1 uplink
	sched.At(failAt.Add(2*delay), send)            // rerouted via survivor
	sched.Run()

	if got != 2 {
		t.Fatalf("delivered %d frames, want 2 (pre-fail + post-reconvergence)", got)
	}
	if !ls.SpineUp((victim+1)%2) || ls.SpineUp(victim) {
		t.Fatal("SpineUp state wrong after failure")
	}
	st := ls.FabricStats()
	if st.Blackholed == 0 {
		t.Fatalf("expected blackholed frames during the window, stats %+v", st)
	}
}

func TestLeafSpineJoinDuringOutageLandsOnSurvivor(t *testing.T) {
	// A group first joined while its home spine is dead must install on a
	// survivor immediately — and move home only after the spine recovers.
	sched := sim.NewScheduler(1)
	ls := NewLeafSpine(sched, smallLeafSpine(sched))
	src := netsim.NewHost(sched, "src")
	sn := src.AddNIC("md", 10)
	ls.Attach(0, sn)
	sub := netsim.NewHost(sched, "sub")
	n := sub.AddNIC("md", 21)
	ls.Attach(1, n)

	grp := pkt.MulticastGroup(1, 7)
	home := ls.spineForGroup(grp)
	ls.FailSpine(home)
	ls.Join(grp, n)
	if got := ls.groupSpine[grp]; got != (home+1)%2 {
		t.Fatalf("join during outage homed on %d, want survivor %d", got, (home+1)%2)
	}

	got := 0
	n.OnFrame = func(*netsim.NIC, *netsim.Frame) { got++ }
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 30001}
	sched.At(0, func() {
		sn.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, sn.Addr(30001), dst, 0, make([]byte, 64))))
	})
	sched.Run()
	if got != 1 {
		t.Fatalf("delivered %d via survivor spine, want 1", got)
	}
}

func TestSpineFaultAdapter(t *testing.T) {
	sched := sim.NewScheduler(1)
	ls := NewLeafSpine(sched, smallLeafSpine(sched))
	sf := ls.SpineFault(1)
	if sf.FaultName() != "spine1" {
		t.Fatalf("FaultName = %q", sf.FaultName())
	}
	sf.Fail()
	if ls.SpineUp(1) {
		t.Fatal("Fail did not take the spine down")
	}
	sf.Fail() // idempotent
	sf.Recover()
	if !ls.SpineUp(1) {
		t.Fatal("Recover did not restore the spine")
	}
	sched.Run()
	// One reconvergence per effective transition.
	if ls.Reconvergences != 2 {
		t.Fatalf("Reconvergences = %d, want 2", ls.Reconvergences)
	}
}

func TestL1FabricPathDarkUntilRepair(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := DefaultL1FabricConfig()
	cfg.Ports = 8
	f := NewL1Fabric(sched, cfg)

	ex := netsim.NewHost(sched, "ex").AddNIC("md", 40)
	norm := netsim.NewHost(sched, "norm").AddNIC("raw", 41)
	norm.Promiscuous = true
	in := f.AttachSource(f.ExToNorm, ex)
	out := f.AttachSink(f.ExToNorm, norm)
	f.Deliver(f.ExToNorm, in, out)

	got := 0
	norm.OnFrame = func(*netsim.NIC, *netsim.Frame) { got++ }
	send := func() {
		ex.Send(netsim.NewFrameBytes(pkt.AppendUDPFrame(nil, ex.Addr(1),
			pkt.UDPAddr{MAC: pkt.HostMAC(41), IP: pkt.HostIP(41), Port: 2}, 0, make([]byte, 64))))
	}

	sched.At(0, send)
	// There is no control plane: a cleared circuit stays dark until the
	// recorded fan-out is physically reinstalled.
	sched.At(sim.Time(10*sim.Microsecond), func() { f.ExToNorm.Circuit(in) })
	sched.At(sim.Time(20*sim.Microsecond), send) // dark: no reroute exists
	sched.At(sim.Time(30*sim.Microsecond), func() { f.ExToNorm.Circuit(in, f.Circuits(f.ExToNorm)[in]...) })
	sched.At(sim.Time(40*sim.Microsecond), send)
	sched.Run()

	if got != 2 {
		t.Fatalf("delivered %d frames, want 2 (pre-fail + post-repair)", got)
	}
	if f.ExToNorm.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1 (the dark-window frame)", f.ExToNorm.NoRoute)
	}
}
