package core

import (
	"fmt"

	"tradenet/internal/colo"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// ColocationResult quantifies §2's rationale for colocation: "to minimize
// speed-of-light delays, trading firms co-locate their servers in the same
// data centers as the exchanges' systems". A firm trading a Carteret
// exchange from Secaucus — even over the best microwave path — concedes a
// round trip of WAN latency to a co-located competitor.
type ColocationResult struct {
	LocalTickToTrade  sim.Duration // co-located firm: in-colo cross-connect
	RemoteTickToTrade sim.Duration // remote firm: microwave both ways
	Advantage         sim.Duration
	WANOneWay         sim.Duration
}

// RunColocation races a co-located firm against a remote firm reacting to
// the same market-data event with identical decision latency.
func RunColocation(decision sim.Duration, seed int64) ColocationResult {
	sched := sim.NewScheduler(seed)

	src := pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 1}
	dst := pkt.UDPAddr{MAC: pkt.HostMAC(2), IP: pkt.HostIP(2), Port: 2}
	mkFrame := func() *netsim.Frame {
		return &netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 0, make([]byte, 100)), Origin: sched.Now()}
	}

	var localOrderAt, remoteOrderAt sim.Time

	// Local firm: exchange → firm over an in-colo cross-connect (5 m), and
	// back the same way.
	localOrderRx := netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) { localOrderAt = sched.Now() })
	localOrderPort := netsim.NewPort(sched, localOrderRx, "ex-oe-local")
	var localFirmTx *netsim.Port

	localFirm := netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) {
		sched.After(decision, func() { localFirmTx.Send(mkFrame()) })
	})
	localFirmRxPort := netsim.NewPort(sched, localFirm, "local-md")
	localMDTx := netsim.NewPort(sched, nil, "ex-md-local")
	crossConnect := 25 * sim.Nanosecond
	netsim.Connect(localMDTx, localFirmRxPort, units.Rate10G, crossConnect)
	localFirmTx = netsim.NewPort(sched, nil, "local-oe")
	netsim.Connect(localFirmTx, localOrderPort, units.Rate10G, crossConnect)

	// Remote firm: exchange → Secaucus over microwave, orders back over
	// microwave.
	var oeCircuit *colo.Circuit
	remoteFirm := netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) {
		sched.After(decision, func() { oeCircuit.PortA.Send(mkFrame()) })
	})
	mdCircuit := colo.NewCircuit(sched, colo.Carteret, colo.Secaucus, colo.DefaultMicrowave(), discard, remoteFirm)
	remoteOrderRx := netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) { remoteOrderAt = sched.Now() })
	oeCircuit = colo.NewCircuit(sched, colo.Secaucus, colo.Carteret, colo.DefaultMicrowave(), discard, remoteOrderRx)

	// The market event fires at t=1ms on both paths simultaneously.
	sched.At(sim.Time(sim.Millisecond), func() {
		localMDTx.Send(mkFrame())
		mdCircuit.PortA.Send(mkFrame())
	})
	sched.Run()

	t0 := sim.Time(sim.Millisecond)
	return ColocationResult{
		LocalTickToTrade:  localOrderAt.Sub(t0),
		RemoteTickToTrade: remoteOrderAt.Sub(t0),
		Advantage:         remoteOrderAt.Sub(localOrderAt),
		WANOneWay:         mdCircuit.Latency,
	}
}

// String renders the race.
func (r ColocationResult) String() string {
	return fmt.Sprintf(`Colocation advantage (§2): same event, same decision latency
  co-located firm tick-to-trade: %v
  remote (Secaucus, microwave):  %v
  colocation advantage:          %v  (≈ 2 × %v one-way WAN)
  this is why trading all US equities markets requires servers in all
  three facilities.
`, r.LocalTickToTrade, r.RemoteTickToTrade, r.Advantage, r.WANOneWay)
}
