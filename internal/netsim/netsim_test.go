package netsim

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// sink is a Handler recording arrivals.
type sink struct {
	frames []*Frame
	at     []sim.Time
	sched  *sim.Scheduler
}

func (s *sink) HandleFrame(_ *Port, f *Frame) {
	s.frames = append(s.frames, f)
	s.at = append(s.at, s.sched.Now())
}

func twoPorts(sched *sim.Scheduler, rate units.Bandwidth, prop sim.Duration) (*Port, *sink) {
	rx := &sink{sched: sched}
	a := NewPort(sched, nil, "a")
	b := NewPort(sched, rx, "b")
	Connect(a, b, rate, prop)
	return a, rx
}

func TestLinkLatencyIsSerializationPlusPropagation(t *testing.T) {
	sched := sim.NewScheduler(1)
	prop := 500 * sim.Nanosecond
	a, rx := twoPorts(sched, units.Rate10G, prop)

	data := make([]byte, 1000)
	sched.At(0, func() { a.Send(&Frame{Data: data, Origin: 0}) })
	sched.Run()

	if len(rx.frames) != 1 {
		t.Fatalf("arrived %d frames", len(rx.frames))
	}
	// Wire bytes: 1000 + 4 FCS + 20 preamble/IFG = 1024 → 819.2 ns at 10G.
	wantSer := units.SerializationDelay(1024, units.Rate10G)
	want := sim.Time(wantSer + prop)
	if rx.at[0] != want {
		t.Fatalf("arrival = %v, want %v", rx.at[0], want)
	}
	if a.TxFrames != 1 || a.TxBytes != 1000 {
		t.Fatalf("tx stats: %d frames %d bytes", a.TxFrames, a.TxBytes)
	}
}

func TestSmallFramePaddedToMinimum(t *testing.T) {
	sched := sim.NewScheduler(1)
	a, rx := twoPorts(sched, units.Rate10G, 0)
	sched.At(0, func() { a.Send(&Frame{Data: make([]byte, 10)}) })
	sched.Run()
	// 10 bytes pads to 60, +4 FCS +20 overhead = 84 bytes → 67.2 ns.
	want := sim.Time(units.SerializationDelay(84, units.Rate10G))
	if rx.at[0] != want {
		t.Fatalf("arrival = %v, want %v", rx.at[0], want)
	}
}

func TestQueueingDelayAccumulates(t *testing.T) {
	sched := sim.NewScheduler(1)
	a, rx := twoPorts(sched, units.Rate10G, 0)
	// Three 1000-byte frames sent at t=0: they serialize back to back.
	sched.At(0, func() {
		for i := 0; i < 3; i++ {
			a.Send(&Frame{Data: make([]byte, 1000), ID: uint64(i)})
		}
	})
	sched.Run()
	per := sim.Time(units.SerializationDelay(1024, units.Rate10G))
	for i, at := range rx.at {
		if want := per * sim.Time(i+1); at != want {
			t.Fatalf("frame %d at %v, want %v", i, at, want)
		}
	}
	if a.QueueDelay <= 0 {
		t.Fatal("queueing delay not recorded")
	}
	if a.QueueHighWaterBytes != 3000 {
		t.Fatalf("high water = %d", a.QueueHighWaterBytes)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	sched := sim.NewScheduler(1)
	a, rx := twoPorts(sched, units.Rate10G, 0)
	a.SetQueueCapacity(2500) // fits two 1000-byte frames only
	sent := 0
	sched.At(0, func() {
		for i := 0; i < 5; i++ {
			if a.Send(&Frame{Data: make([]byte, 1000)}) {
				sent++
			}
		}
	})
	sched.Run()
	if sent != 2 || a.Drops != 3 {
		t.Fatalf("sent=%d drops=%d", sent, a.Drops)
	}
	if len(rx.frames) != 2 {
		t.Fatalf("arrived = %d", len(rx.frames))
	}
}

// TestIdlePortSchedulesNoTrailingDrain pins the per-hop event budget: a lone
// frame costs its drain and its delivery, and nothing for the end of a
// serialization no frame is waiting for — yet the run still ends there (a
// cut-through egress delivers before its line frees up), and a frame sent
// inside the window waits for the line.
func TestIdlePortSchedulesNoTrailingDrain(t *testing.T) {
	sched := sim.NewScheduler(1)
	prop := 25 * sim.Nanosecond
	a, rx := twoPorts(sched, units.Rate10G, prop)
	a.CutThrough = true
	ser := units.SerializationDelay(1024, units.Rate10G)

	a.Send(&Frame{Data: make([]byte, 1000)})
	if end := sched.Run(); end != sim.Time(ser) {
		t.Fatalf("run ended at %v, want the end of serialization %v", end, sim.Time(ser))
	}
	if sched.Fired() != 2 {
		t.Fatalf("a lone frame fired %d events, want 2 (drain, deliver)", sched.Fired())
	}

	// Busy line: the second frame starts when the first one's bits have left.
	start := sched.Now()
	a.Send(&Frame{Data: make([]byte, 1000)})
	sched.At(start.Add(ser/2), func() { a.Send(&Frame{Data: make([]byte, 1000)}) })
	sched.Run()
	if want := start.Add(ser + prop); rx.at[2] != want {
		t.Fatalf("frame sent mid-serialization arrived at %v, want %v", rx.at[2], want)
	}
	// drain+deliver for each, and the closure: no idle drain anywhere.
	if sched.Fired() != 2+5 {
		t.Fatalf("fired %d events, want 7", sched.Fired())
	}
}

func TestTapObservesEgress(t *testing.T) {
	sched := sim.NewScheduler(1)
	a, _ := twoPorts(sched, units.Rate10G, 0)
	var tapped []sim.Time
	a.Tap = func(f *Frame, at sim.Time) { tapped = append(tapped, at) }
	sched.At(0, func() {
		a.Send(&Frame{Data: make([]byte, 100)})
		a.Send(&Frame{Data: make([]byte, 100)})
	})
	sched.Run()
	if len(tapped) != 2 {
		t.Fatalf("tapped %d", len(tapped))
	}
	if tapped[0] != 0 || tapped[1] <= tapped[0] {
		t.Fatalf("tap times = %v", tapped)
	}
}

func TestConnectPanicsOnDoubleConnect(t *testing.T) {
	sched := sim.NewScheduler(1)
	a := NewPort(sched, nil, "a")
	b := NewPort(sched, nil, "b")
	c := NewPort(sched, nil, "c")
	Connect(a, b, units.Rate10G, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect should panic")
		}
	}()
	Connect(a, c, units.Rate10G, 0)
}

func TestSendOnUnconnectedPortPanics(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := NewPort(sched, nil, "lonely")
	defer func() {
		if recover() == nil {
			t.Fatal("send on unconnected port should panic")
		}
	}()
	p.Send(&Frame{Data: []byte{1}})
}

func TestHostNICFiltering(t *testing.T) {
	sched := sim.NewScheduler(1)
	h := NewHost(sched, "srv1")
	nic := h.AddNIC("md", 1)
	var got [][]byte
	nic.OnFrame = func(_ *NIC, f *Frame) { got = append(got, f.Data) }

	tx := NewPort(sched, nil, "tx")
	Connect(tx, nic.Port, units.Rate10G, 0)

	grp := pkt.MulticastGroup(1, 7)
	other := pkt.MulticastGroup(1, 8)
	src := pkt.UDPAddr{MAC: pkt.HostMAC(99), IP: pkt.HostIP(99), Port: 1}
	mk := func(dstMAC pkt.MAC, dstIP pkt.IP4) *Frame {
		return &Frame{Data: pkt.AppendUDPFrame(nil,
			src, pkt.UDPAddr{MAC: dstMAC, IP: dstIP, Port: 2}, 0, []byte("x"))}
	}

	nic.Join(grp)
	sched.At(0, func() {
		tx.Send(mk(nic.MAC, nic.IP))                 // unicast to us: accept
		tx.Send(mk(pkt.HostMAC(55), pkt.HostIP(55))) // unicast to other: filter
		tx.Send(mk(pkt.MulticastMAC(grp), grp))      // joined group: accept
		tx.Send(mk(pkt.MulticastMAC(other), other))  // unjoined group: filter
	})
	sched.Run()
	if len(got) != 2 {
		t.Fatalf("accepted %d frames, want 2", len(got))
	}
	if nic.Filtered != 2 {
		t.Fatalf("filtered = %d, want 2", nic.Filtered)
	}
	if nic.Subscriptions() != 1 {
		t.Fatalf("subs = %d", nic.Subscriptions())
	}
	nic.Leave(grp)
	if nic.Subscriptions() != 0 {
		t.Fatal("leave failed")
	}
}

// TestNICAcceptsFilter pins the destination filter over the packed group
// set: own unicast, foreign unicast, joined, never-joined and left groups,
// and group MACs that differ from a joined one in a single byte.
func TestNICAcceptsFilter(t *testing.T) {
	h := NewHost(sim.NewScheduler(1), "srv")
	nic := h.AddNIC("md", 7)
	g1, g2, g3 := pkt.MulticastGroup(1, 7), pkt.MulticastGroup(1, 8), pkt.MulticastGroup(2, 7)
	nic.Join(g1)
	nic.Join(g2)
	nic.Join(g2) // idempotent
	nic.Join(g3)
	nic.Leave(g2)
	nic.Leave(pkt.MulticastGroup(9, 9)) // never joined: no-op
	if nic.Subscriptions() != 2 {
		t.Fatalf("subscriptions = %d, want 2", nic.Subscriptions())
	}
	near := pkt.MulticastMAC(g1)
	near[5] ^= 0x40
	far := pkt.MulticastMAC(g1)
	far[3] ^= 0x01
	cases := []struct {
		name string
		dst  pkt.MAC
		want bool
	}{
		{"own unicast", nic.MAC, true},
		{"foreign unicast", pkt.HostMAC(8), false},
		{"joined group", pkt.MulticastMAC(g1), true},
		{"second joined group", pkt.MulticastMAC(g3), true},
		{"left group", pkt.MulticastMAC(g2), false},
		{"foreign group", pkt.MulticastMAC(pkt.MulticastGroup(3, 1)), false},
		{"joined group, last byte off", near, false},
		{"joined group, middle byte off", far, false},
		{"broadcast", pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false},
	}
	for _, c := range cases {
		if got := nic.accepts(c.dst); got != c.want {
			t.Errorf("%s (%v): accepts = %v, want %v", c.name, c.dst, got, c.want)
		}
	}
	var fresh NIC // no Join yet: a nil set filters every group
	if fresh.accepts(pkt.MulticastMAC(g1)) {
		t.Error("NIC with no subscriptions accepted a group frame")
	}
	nic.Promiscuous = true
	if !nic.accepts(pkt.HostMAC(8)) || !nic.accepts(pkt.MulticastMAC(g2)) {
		t.Error("promiscuous NIC filtered a frame")
	}

	// The sorted set against a map, at the sizes a NIC sees and well beyond:
	// joins in random order with duplicates, leaves of joined and absent
	// groups, leave then re-join, and a probe of every candidate after each.
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{0, 1, 8, 64} {
		nic := h.AddNIC("md", 7)
		ref := map[pkt.MAC]bool{}
		var cands []pkt.IP4 // twice as many candidates as joins
		for i := 0; i < 2*size+2; i++ {
			cands = append(cands, pkt.MulticastGroup(uint8(rng.Intn(4)), uint16(rng.Intn(1<<16))))
		}
		check := func(step string) {
			t.Helper()
			if nic.Subscriptions() != len(ref) {
				t.Fatalf("size %d, %s: subscriptions = %d, want %d", size, step, nic.Subscriptions(), len(ref))
			}
			if !sort.SliceIsSorted(nic.groups, func(i, j int) bool { return nic.groups[i] < nic.groups[j] }) {
				t.Fatalf("size %d, %s: group keys out of order: %x", size, step, nic.groups)
			}
			for _, g := range cands {
				if m := pkt.MulticastMAC(g); nic.accepts(m) != ref[m] {
					t.Fatalf("size %d, %s: accepts(%v) = %v, want %v", size, step, m, !ref[m], ref[m])
				}
			}
			if !nic.accepts(nic.MAC) || nic.accepts(pkt.HostMAC(8)) {
				t.Fatalf("size %d, %s: unicast filter wrong", size, step)
			}
		}
		check("empty")
		order := rng.Perm(size)
		for n, i := range order {
			nic.Join(cands[i])
			ref[pkt.MulticastMAC(cands[i])] = true
			nic.Join(cands[order[rng.Intn(n+1)]]) // a duplicate
		}
		check("joined")
		for i, g := range cands {
			if i%3 == 0 {
				nic.Leave(g) // joined or absent alike
				delete(ref, pkt.MulticastMAC(g))
				check("left")
			}
		}
		for i, g := range cands {
			if i%6 == 0 {
				nic.Join(g)
				ref[pkt.MulticastMAC(g)] = true
				check("re-joined")
			}
		}
		nic.Promiscuous = true
		for _, g := range cands {
			if !nic.accepts(pkt.MulticastMAC(g)) {
				t.Fatalf("size %d: promiscuous NIC filtered %v", size, g)
			}
		}
	}
}

func TestHostPromiscuousNIC(t *testing.T) {
	sched := sim.NewScheduler(1)
	h := NewHost(sched, "cap")
	nic := h.AddNIC("tap", 2)
	nic.Promiscuous = true
	n := 0
	nic.OnFrame = func(*NIC, *Frame) { n++ }
	tx := NewPort(sched, nil, "tx")
	Connect(tx, nic.Port, units.Rate10G, 0)
	src := pkt.UDPAddr{MAC: pkt.HostMAC(9), IP: pkt.HostIP(9), Port: 1}
	dst := pkt.UDPAddr{MAC: pkt.HostMAC(55), IP: pkt.HostIP(55), Port: 2}
	sched.At(0, func() {
		tx.Send(&Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 0, []byte("y"))})
	})
	sched.Run()
	if n != 1 {
		t.Fatal("promiscuous NIC filtered a frame")
	}
}

func TestHostRxLatencyApplied(t *testing.T) {
	sched := sim.NewScheduler(1)
	h := NewHost(sched, "srv")
	h.RxLatency = sim.Microsecond
	nic := h.AddNIC("md", 3)
	var deliveredAt sim.Time
	nic.OnFrame = func(*NIC, *Frame) { deliveredAt = sched.Now() }
	tx := NewPort(sched, nil, "tx")
	Connect(tx, nic.Port, units.Rate10G, 0)
	src := pkt.UDPAddr{MAC: pkt.HostMAC(9), IP: pkt.HostIP(9), Port: 1}
	sched.At(0, func() {
		tx.Send(&Frame{Data: pkt.AppendUDPFrame(nil, src, nic.Addr(5), 0, []byte("z"))})
	})
	sched.Run()
	arrival := sim.Time(units.SerializationDelay(84, units.Rate10G))
	if deliveredAt != arrival.Add(sim.Microsecond) {
		t.Fatalf("delivered at %v, want %v", deliveredAt, arrival.Add(sim.Microsecond))
	}
}

// hostPair builds two hosts connected directly with streams registered both
// ways.
func hostPair(t *testing.T, sched *sim.Scheduler, lossyCap int) (*Stream, *Stream, *Port, *Port) {
	t.Helper()
	h1, h2 := NewHost(sched, "client"), NewHost(sched, "server")
	n1, n2 := h1.AddNIC("orders", 10), h2.AddNIC("orders", 20)
	Connect(n1.Port, n2.Port, units.Rate10G, 500*sim.Nanosecond)
	if lossyCap > 0 {
		n1.Port.SetQueueCapacity(lossyCap)
	}
	m1, m2 := NewStreamMux(n1), NewStreamMux(n2)
	s1 := NewStream(n1, 40000, n2.Addr(443))
	s2 := NewStream(n2, 443, n1.Addr(40000))
	m1.Register(s1)
	m2.Register(s2)
	return s1, s2, n1.Port, n2.Port
}

func TestStreamDeliversInOrder(t *testing.T) {
	sched := sim.NewScheduler(1)
	s1, s2, _, _ := hostPair(t, sched, 0)
	var got bytes.Buffer
	s2.OnData = func(b []byte) { got.Write(b) }
	sched.At(0, func() {
		s1.Write([]byte("hello "))
		s1.Write([]byte("trading "))
		s1.Write([]byte("world"))
	})
	sched.Run()
	if got.String() != "hello trading world" {
		t.Fatalf("got %q", got.String())
	}
	if s1.InFlight() != 0 {
		t.Fatalf("in flight = %d after acks", s1.InFlight())
	}
	if s1.Retransmits != 0 {
		t.Fatalf("retransmits = %d on clean link", s1.Retransmits)
	}
}

func TestStreamSegmentsLargeWrites(t *testing.T) {
	sched := sim.NewScheduler(1)
	s1, s2, _, _ := hostPair(t, sched, 0)
	big := make([]byte, 4*MSS+100)
	for i := range big {
		big[i] = byte(i)
	}
	var got bytes.Buffer
	s2.OnData = func(b []byte) { got.Write(b) }
	sched.At(0, func() { s1.Write(big) })
	sched.Run()
	if !bytes.Equal(got.Bytes(), big) {
		t.Fatalf("reassembly failed: %d vs %d bytes", got.Len(), len(big))
	}
	if s1.SentSegments != 5 {
		t.Fatalf("segments = %d, want 5", s1.SentSegments)
	}
}

func TestStreamRetransmitsThroughLoss(t *testing.T) {
	sched := sim.NewScheduler(1)
	// Tiny egress queue on the client: a burst overflows it and drops
	// segments, forcing RTO recovery.
	s1, s2, txPort, _ := hostPair(t, sched, 3000)
	var got bytes.Buffer
	s2.OnData = func(b []byte) { got.Write(b) }
	payload := make([]byte, 10*MSS)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sched.At(0, func() { s1.Write(payload) })
	sched.Run()
	if txPort.Drops == 0 {
		t.Fatal("expected drops to exercise retransmission")
	}
	if s1.Retransmits == 0 {
		t.Fatal("expected retransmissions")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("delivery incomplete/corrupt: %d vs %d bytes", got.Len(), len(payload))
	}
}

func TestStreamBidirectional(t *testing.T) {
	sched := sim.NewScheduler(1)
	s1, s2, _, _ := hostPair(t, sched, 0)
	var a2b, b2a bytes.Buffer
	s2.OnData = func(b []byte) { a2b.Write(b) }
	s1.OnData = func(b []byte) { b2a.Write(b) }
	sched.At(0, func() {
		s1.Write([]byte("new-order"))
		s2.Write([]byte("ack"))
	})
	sched.Run()
	if a2b.String() != "new-order" || b2a.String() != "ack" {
		t.Fatalf("a2b=%q b2a=%q", a2b.String(), b2a.String())
	}
}

func TestStreamMuxFallback(t *testing.T) {
	sched := sim.NewScheduler(1)
	h1, h2 := NewHost(sched, "a"), NewHost(sched, "b")
	n1, n2 := h1.AddNIC("x", 30), h2.AddNIC("x", 31)
	Connect(n1.Port, n2.Port, units.Rate10G, 0)
	mux := NewStreamMux(n2)
	var fallback int
	mux.Fallback = func(*NIC, *Frame) { fallback++ }
	src := n1.Addr(5)
	sched.At(0, func() {
		// UDP frame: not TCP, must hit fallback.
		n1.SendBytes(pkt.AppendUDPFrame(nil, src, n2.Addr(6), 0, []byte("md")))
		// TCP frame with no registered stream: fallback too.
		n1.SendBytes(pkt.AppendTCPFrame(nil, src, n2.Addr(7), &pkt.TCP{Flags: pkt.FlagACK}, []byte("??")))
	})
	sched.Run()
	if fallback != 2 {
		t.Fatalf("fallback = %d", fallback)
	}
}

func TestSoftwareHopBelowMicrosecond(t *testing.T) {
	// §3: "latency for a hop through a software host ... is now below
	// 1 microsecond" for an empty ping-pong. Verify the host model's
	// default encodes that when configured accordingly.
	sched := sim.NewScheduler(1)
	h := NewHost(sched, "pingpong")
	h.RxLatency = 850 * sim.Nanosecond
	if h.RxLatency >= sim.Microsecond {
		t.Fatal("software hop should be configurable below 1µs")
	}
}

func BenchmarkPortThroughput(b *testing.B) {
	sched := sim.NewScheduler(1)
	rx := &sink{sched: sched}
	p := NewPort(sched, nil, "a")
	q := NewPort(sched, rx, "b")
	Connect(p, q, units.Rate100G, 0)
	p.SetQueueCapacity(1 << 30)
	data := make([]byte, 200)
	b.ReportAllocs()
	b.ResetTimer()
	sched.At(0, func() {
		for i := 0; i < b.N; i++ {
			p.Send(&Frame{Data: data})
		}
	})
	sched.Run()
}

func TestStreamDuplicateDataReAcked(t *testing.T) {
	// Deliver the same segment twice (as a retransmission would): the
	// receiver delivers once and re-acks, the sender's state is unharmed.
	sched := sim.NewScheduler(1)
	s1, s2, _, _ := hostPair(t, sched, 0)
	var got bytes.Buffer
	s2.OnData = func(b []byte) { got.Write(b) }
	sched.At(0, func() { s1.Write([]byte("order")) })
	sched.Run()
	// Force a spurious retransmission by replaying the RTO path.
	sched.After(0, func() { s1.Write([]byte("!")) })
	sched.Run()
	if got.String() != "order!" {
		t.Fatalf("got %q", got.String())
	}
	if s1.InFlight() != 0 {
		t.Fatalf("in flight = %d", s1.InFlight())
	}
}

func TestStreamAccessors(t *testing.T) {
	sched := sim.NewScheduler(1)
	s1, s2, _, _ := hostPair(t, sched, 0)
	if s1.Local().Port != 40000 || s1.Remote().Port != 443 {
		t.Fatalf("addrs: %+v %+v", s1.Local(), s1.Remote())
	}
	if s2.Local().Port != 443 {
		t.Fatalf("server local: %+v", s2.Local())
	}
}

func TestPortRateAndPeerAccessors(t *testing.T) {
	sched := sim.NewScheduler(1)
	a := NewPort(sched, nil, "a")
	b := NewPort(sched, nil, "b")
	if a.Connected() {
		t.Fatal("unconnected port reports connected")
	}
	Connect(a, b, units.Rate25G, sim.Microsecond)
	if !a.Connected() || a.Peer() != b || a.Rate() != units.Rate25G {
		t.Fatal("accessors wrong")
	}
}

func TestCoreSetSubmitAndPinning(t *testing.T) {
	sched := sim.NewScheduler(1)
	cores := NewCoreSet(sched, 2)
	if cores.Cores() != 2 {
		t.Fatalf("cores = %d", cores.Cores())
	}
	var doneAt []sim.Time
	sched.At(0, func() {
		// Two 10µs jobs: least-loaded dispatch uses both cores.
		c1, d1 := cores.Submit(10*sim.Microsecond, func() { doneAt = append(doneAt, sched.Now()) })
		c2, d2 := cores.Submit(10*sim.Microsecond, func() { doneAt = append(doneAt, sched.Now()) })
		if c1 == c2 {
			t.Errorf("both jobs on core %d", c1)
		}
		if d1 != d2 {
			t.Errorf("parallel completions differ: %v vs %v", d1, d2)
		}
		// A third job queues behind one of them.
		_, d3 := cores.Submit(5*sim.Microsecond, func() { doneAt = append(doneAt, sched.Now()) })
		if d3 != sim.Time(15*sim.Microsecond) {
			t.Errorf("queued completion = %v", d3)
		}
	})
	sched.Run()
	if len(doneAt) != 3 {
		t.Fatalf("completions = %d", len(doneAt))
	}
	// Utilization: core work = 10+5 and 10 over a 15µs horizon.
	u0 := cores.Utilization(0, 15*sim.Microsecond)
	u1 := cores.Utilization(1, 15*sim.Microsecond)
	if u0+u1 < 1.6 || u0+u1 > 1.7 {
		t.Fatalf("utilizations = %v + %v", u0, u1)
	}
}

func TestCoreSetQueueDelay(t *testing.T) {
	sched := sim.NewScheduler(1)
	cores := NewCoreSet(sched, 1)
	sched.At(0, func() {
		if cores.QueueDelay(0) != 0 {
			t.Error("idle core should have zero delay")
		}
		cores.SubmitTo(0, 7*sim.Microsecond, nil)
		if cores.QueueDelay(0) != 7*sim.Microsecond {
			t.Errorf("queue delay = %v", cores.QueueDelay(0))
		}
	})
	sched.Run()
	if cores.Utilization(0, 0) != 0 {
		t.Fatal("zero horizon utilization should be 0")
	}
}

func TestCoreSetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero cores should panic")
		}
	}()
	NewCoreSet(sim.NewScheduler(1), 0)
}
