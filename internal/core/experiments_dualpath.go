package core

import (
	"fmt"

	"tradenet/internal/colo"
	"tradenet/internal/feed"
	"tradenet/internal/metrics"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// DualPathResult is the cross-colo A/B delivery study: the same feed
// carried over microwave (fast, rain-fades) and fiber (slow, reliable),
// arbitrated at the receiver. This composes §2's two reliability mechanisms
// — redundant A/B feeds and diverse WAN media — and shows why firms run
// both: microwave wins latency in the sun, fiber backstops in the rain.
type DualPathResult struct {
	Messages       uint64
	MicrowaveWins  uint64
	FiberWins      uint64
	GapsAfterArbit uint64
	LostMicrowave  uint64 // frames rain took on the microwave path
	ClearP50       sim.Duration
	RainP50        sim.Duration
}

// udpRx terminates a WAN path, handing each frame's UDP payload to fn.
func udpRx(fn func(dgram []byte)) netsim.Handler {
	return netsim.HandlerFunc(func(_ *netsim.Port, f *netsim.Frame) {
		var uf pkt.UDPFrame
		if err := pkt.ParseUDPFrame(f.Data, &uf); err != nil {
			return
		}
		fn(uf.Payload)
	})
}

// RunDualPathWAN publishes msgs feed messages from Carteret to Secaucus on
// both media, with rain over the middle third of the run, and measures the
// arbitrated stream.
func RunDualPathWAN(msgs int, seed int64) DualPathResult {
	sched := sim.NewScheduler(seed)
	var res DualPathResult

	arb := feed.NewArbiter(1)
	clearLat, rainLat := metrics.NewHistogram(), metrics.NewHistogram()
	raining := false

	// Message i is published at exactly i × 10 µs and carries i in its
	// OrderID, so per-message delivery latency is exact even when the
	// reorder buffer delays delivery.
	onMsg := func(m *feed.Msg) {
		published := sim.Time(m.OrderID) * sim.Time(10*sim.Microsecond)
		lat := int64(sched.Now().Sub(published))
		if raining {
			rainLat.Observe(lat)
		} else {
			clearLat.Observe(lat)
		}
		res.Messages++
	}
	mw := colo.NewCircuit(sched, colo.Carteret, colo.Secaucus, colo.DefaultMicrowave(), discard,
		udpRx(func(dgram []byte) { arb.ConsumeA(dgram, onMsg) }))
	fb := colo.NewCircuit(sched, colo.Carteret, colo.Secaucus, colo.DefaultFiber(), discard,
		udpRx(func(dgram []byte) { arb.ConsumeB(dgram, onMsg) }))

	// Publish one small datagram per message, 10 µs apart; rain covers the
	// middle third.
	packer := feed.NewPacker(feed.Internal, 1)
	var m feed.Msg
	m.Type = feed.MsgAddOrder
	m.SetSymbol("AAPL")
	src := pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 1}
	grp := pkt.MulticastGroup(1, 1)
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 2}

	total := sim.Duration(msgs) * 10 * sim.Microsecond
	sched.At(sim.Time(total/3), func() { raining = true; mw.SetRaining(true) })
	sched.At(sim.Time(2*total/3), func() { raining = false; mw.SetRaining(false) })

	for i := 0; i < msgs; i++ {
		i := i
		sched.At(sim.Time(sim.Duration(i)*10*sim.Microsecond), func() {
			m.OrderID = uint64(i)
			packer.Add(&m)
			packer.Flush(func(dgram []byte) {
				frame := pkt.AppendUDPFrame(nil, src, dst, uint16(i), dgram)
				now := sched.Now()
				// Frame bytes are immutable once sent: one slice backs both paths.
				mw.PortA.Send(&netsim.Frame{Data: frame, Origin: now})
				fb.PortA.Send(&netsim.Frame{Data: frame, Origin: now})
			})
		})
	}
	sched.Run()

	res.MicrowaveWins = arb.AWins
	res.FiberWins = arb.BWins
	_, gaps, _ := arb.Stats()
	res.GapsAfterArbit = gaps
	res.LostMicrowave = mw.PortA.Lost
	res.ClearP50 = sim.Duration(clearLat.Median())
	res.RainP50 = sim.Duration(rainLat.Median())
	return res
}

// String renders the dual-path study.
func (r DualPathResult) String() string {
	return fmt.Sprintf(`Dual-path WAN delivery (§2): Carteret→Secaucus, microwave + fiber, A/B arbitrated
  messages delivered: %d   gaps after arbitration: %d
  microwave wins: %d   fiber wins: %d   rain losses on microwave: %d
  median delivery latency: clear %v, rain %v
  every message arrives — rain shifts wins (and latency) to fiber, and the
  microwave advantage returns with the sun.
`, r.Messages, r.GapsAfterArbit, r.MicrowaveWins, r.FiberWins, r.LostMicrowave,
		r.ClearP50, r.RainP50)
}
