package core

import (
	"fmt"

	"tradenet/internal/colo"
	"tradenet/internal/device"
	"tradenet/internal/fault"
	"tradenet/internal/feed"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// Failover experiment: what happens to a trading plant when infrastructure
// dies mid-burst? Two scenarios, both deterministic per seed:
//
//   - A spine of Design 1's leaf-spine fabric is killed while market-data
//     bursts are flowing. Until the control plane reconverges (BFD detect +
//     ECMP rehash + multicast tree rebuild, modelled as one ReconvergeDelay),
//     everything hashed onto the dead spine blackholes. Normalizers heal
//     their raw-feed gaps through the exchange's TCP replay service (§2's
//     sequenced-feed recovery contract), and strategies react to internal-
//     feed gaps by pulling their quotes — stale quotes are priced against
//     liquidity events they never saw.
//
//   - A WAN feed path (Carteret→Secaucus microwave) suffers a rain fade and
//     then a hard outage. There is no alternate path in this scenario — the
//     receiver leans entirely on gap recovery over a metro-fiber TCP path,
//     measuring how much a replay service alone can give back and how fast.

// Spine-failure schedule: bursts every burstInterval from burstStart; the
// victim spine dies just before burst spineFailBurst publishes — so that
// burst flies into the blackhole window — and stays dead for spineOutage.
const (
	failoverBursts   = 10
	burstInterval    = 2 * sim.Millisecond
	spineFailBurst   = 3
	spineOutage      = 6 * sim.Millisecond
	recoveryProbeGap = 500 * sim.Microsecond
)

// SpineFailoverResult is one seed's spine-kill run.
type SpineFailoverResult struct {
	Victim         int  // spine index killed
	RecoveredInRun bool // did delivery catch back up before the run ended?
	// TimeToRecovery is fault instant → first probe at which every published
	// message (live or replayed) had reached every normalizer. Resolution is
	// recoveryProbeGap; the floor is set by gap *detection* — a gap is only
	// visible when the next burst arrives on the surviving spines.
	TimeToRecovery sim.Duration

	Blackholed uint64 // sends into dead links during the blackhole window
	LostFrames uint64 // frames cut on the wire at the failure instant
	Purged     uint64 // queued frames lost with the dead spine's packet memory

	GapRequests   uint64 // replay requests normalizers sent
	RecoveredMsgs uint64 // messages replayed into normalizers
	ServedDgrams  uint64 // datagrams the exchange's replay service served
	RefusedReqs   uint64 // replay requests refused (range rolled out)

	GapsSeen     uint64 // sequence gaps strategies saw on the normalized feed
	QuotePulls   uint64 // gap-triggered pull events
	PulledOrders uint64 // cancels those pulls sent

	Reconvergences int
	Orders         uint64 // orders the exchange accepted over the run
	FaultLog       string
}

// runSpineFailover kills the spine carrying raw-feed unit 0 mid-burst.
func runSpineFailover(sc Scenario, seed int64) SpineFailoverResult {
	s := sc
	s.Seed = seed
	s.PullOnGap = true
	d := NewDesign1(s, device.DefaultCommodityConfig())
	d.WireGapRecovery()
	sched := d.Sched

	// Aim at the spine carrying the first raw-feed group, so the fault
	// provably crosses the measured feed.
	victim := d.LS.GroupSpine(d.RawMap.Groups()[0])
	res := SpineFailoverResult{Victim: victim}

	burstStart := sim.Time(5 * sim.Millisecond) // logons drain first
	failAt := burstStart.Add(sim.Duration(spineFailBurst)*burstInterval - 10*sim.Microsecond)

	plan := fault.NewPlan(sched)
	plan.SwitchOutage(d.LS.SpineFault(victim), failAt, spineOutage)

	d.publishBursts(failoverBursts, s.BurstMessages/failoverBursts, burstStart, burstInterval, nil)
	d.Ex.OnOrderAccepted = func(*orderentry.Msg, sim.Time) { res.Orders++ }

	// Completeness probes: every message the exchange published (bursts plus
	// reflections of accepted orders) should reach every normalizer — each
	// joins all raw groups — live or via replay. The first probe after the
	// fault at which that holds again marks recovery. Replayed datagrams can
	// overlap the gap range at datagram boundaries, so MsgsIn may overshoot —
	// hence >=, not ==. Probes before any post-fault burst has published are
	// skipped: completeness of the pre-fault traffic says nothing about the
	// blackhole.
	totalIn := func() uint64 {
		var t uint64
		for _, n := range d.Norms {
			t += n.MsgsIn
		}
		return t
	}
	var pubAtFail uint64
	sched.AtPrio(failAt, sim.PrioReport, func() { pubAtFail = d.Ex.PublishedMsgs })
	end := burstStart.Add(sim.Duration(failoverBursts)*burstInterval + 5*sim.Millisecond)
	for at := failAt.Add(recoveryProbeGap); at <= end; at = at.Add(recoveryProbeGap) {
		sched.AtPrio(at, sim.PrioReport, func() {
			if res.RecoveredInRun || d.Ex.PublishedMsgs <= pubAtFail {
				return
			}
			if totalIn() >= d.Ex.PublishedMsgs*uint64(len(d.Norms)) {
				res.RecoveredInRun = true
				res.TimeToRecovery = sched.Now().Sub(failAt)
			}
		})
	}
	sched.Run()

	st := d.LS.FabricStats()
	res.Blackholed = st.Blackholed
	res.LostFrames = st.Lost
	res.Purged = st.Purged
	res.GapRequests = d.GapRequests
	for _, rr := range d.RecReaders {
		res.RecoveredMsgs += rr.Recovered
	}
	res.ServedDgrams = d.Ex.RecoveryServer().Served
	res.RefusedReqs = d.Ex.RecoveryServer().Refused
	for _, str := range d.Strats {
		res.GapsSeen += str.GapsSeen
		res.QuotePulls += str.QuotePulls
		res.PulledOrders += str.PulledOrders
	}
	res.Reconvergences = d.LS.Reconvergences
	res.FaultLog = plan.LogString()
	return res
}

// WANFailoverResult is one seed's WAN-path-failure run.
type WANFailoverResult struct {
	Published uint64
	Delivered uint64 // messages that arrived on the live stream
	Recovered uint64 // messages replayed over the recovery stream

	LostFrames uint64 // rain losses plus frames cut at the failure instant
	Blackholed uint64 // sends during the hard outage

	Requests      uint64 // replay requests the receiver sent
	ServedDgrams  uint64 // datagrams the publisher's replay service served
	Unrecoverable uint64 // refused ranges (rolled out of the retain window)

	RecoveredInRun bool
	// TimeToRecovery is link-restored → last replayed message applied: how
	// long the receiver's picture stayed incomplete after the path healed.
	TimeToRecovery sim.Duration
	FaultLog       string
}

// WAN-failure schedule, in fractions of the publish window.
const (
	wanMsgs      = 3000
	wanMsgGap    = 10 * sim.Microsecond
	wanRainProb  = 0.35
	wanOutageLen = 2 * sim.Millisecond
)

// runWANFailover publishes a feed over a single microwave path with a TCP
// replay service on a metro-fiber side channel, then rains on it and later
// hard-fails it.
func runWANFailover(seed int64) WANFailoverResult {
	sched := sim.NewScheduler(seed)
	var res WANFailoverResult

	// Publisher side: retain window + replay server.
	retain := feed.NewRetainBuffer(1, 2048)
	srv := feed.NewRecoveryServer(retain)

	// Recovery side channel: metro fiber between dedicated NICs. Slower than
	// the microwave path it backstops, but weather-proof.
	pubNIC := netsim.NewHost(sched, "wan-pub").AddNIC("rec", 70)
	subNIC := netsim.NewHost(sched, "wan-sub").AddNIC("rec", 72)
	netsim.Connect(pubNIC.Port, subNIC.Port, units.Rate10G, 80*sim.Microsecond)
	pubMux := netsim.NewStreamMux(pubNIC)
	subMux := netsim.NewStreamMux(subNIC)
	srvStream := netsim.NewStream(pubNIC, 5000, subNIC.Addr(5001))
	cliStream := netsim.NewStream(subNIC, 5001, pubNIC.Addr(5000))
	pubMux.Register(srvStream)
	subMux.Register(cliStream)
	srvStream.OnData = func(b []byte) {
		srv.Receive(b, func(resp []byte) { srvStream.Write(resp) })
	}

	var lastRecoveredAt sim.Time
	client := feed.NewRecoveryClient(1, func(req []byte) { cliStream.Write(req) })
	client.Unrecoverable = func(feed.GapInfo) { res.Unrecoverable++ }
	cliStream.OnData = func(b []byte) {
		_ = client.ReceiveRecovery(b, func(*feed.Msg) { lastRecoveredAt = sched.Now() })
	}

	// Live path: one microwave circuit, no A/B twin — recovery is all there is.
	rx := udpRx(func(dgram []byte) {
		_ = client.Consume(dgram, func(*feed.Msg) { res.Delivered++ })
	})
	mw := colo.NewCircuit(sched, colo.Carteret, colo.Secaucus, colo.DefaultMicrowave(), discard, rx)

	total := sim.Duration(wanMsgs) * wanMsgGap
	plan := fault.NewPlan(sched)
	plan.LossBurst(mw.PortA, sim.Time(total/4), total/10, wanRainProb)
	outStart := sim.Time(total * 6 / 10)
	plan.LinkOutage(mw.PortA, outStart, wanOutageLen)

	packer := feed.NewPacker(feed.Internal, 1)
	var m feed.Msg
	m.Type = feed.MsgAddOrder
	m.SetSymbol("AAPL")
	src := pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 1}
	grp := pkt.MulticastGroup(1, 1)
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 2}
	for i := 0; i < wanMsgs; i++ {
		i := i
		sched.At(sim.Time(sim.Duration(i)*wanMsgGap), func() {
			m.OrderID = uint64(i)
			packer.Add(&m)
			packer.Flush(func(dgram []byte) {
				retain.Retain(dgram)
				frame := pkt.AppendUDPFrame(nil, src, dst, uint16(i), dgram)
				mw.PortA.Send(&netsim.Frame{Data: frame, Origin: sched.Now()})
			})
		})
	}
	sched.Run()

	res.Published = wanMsgs
	res.Recovered = client.Recovered
	res.Requests = client.Requests
	res.ServedDgrams = srv.Served
	res.LostFrames = mw.PortA.Lost
	res.Blackholed = mw.PortA.Blackholed
	outEnd := outStart.Add(wanOutageLen)
	if lastRecoveredAt > outEnd {
		res.RecoveredInRun = true
		res.TimeToRecovery = lastRecoveredAt.Sub(outEnd)
	}
	res.FaultLog = plan.LogString()
	return res
}

// FailoverResult is one seed's pair of failover runs.
type FailoverResult struct {
	Seed  int64
	Spine SpineFailoverResult
	WAN   WANFailoverResult
}

// FailoverReport is the failover experiment replicated across seeds.
type FailoverReport = faultReport[FailoverResult]

// RunFailover runs both failover scenarios for every seed, in parallel,
// results in seed order. Each run is a pure function of its seed.
func RunFailover(sc Scenario, seeds []int64) FailoverReport { return failover.replicate(sc, seeds) }

// ttr renders a time-to-recovery, or "never" when delivery did not catch up.
func ttr(recovered bool, d sim.Duration) string {
	if !recovered {
		return "never"
	}
	return d.String()
}

// failover is E19: per-seed tables for both scenarios, then the first
// seed's fault timelines.
var failover = &faultExperiment[FailoverResult]{
	id:    "failover",
	title: "Failover under deterministic fault injection",
	run: func(sc Scenario) FailoverResult {
		return FailoverResult{Seed: sc.Seed, Spine: runSpineFailover(sc, sc.Seed), WAN: runWANFailover(sc.Seed)}
	},
	tables: []func([]int64, []FailoverResult) string{
		table(fmt.Sprintf("Spine killed mid-burst in Design 1 (reconverge delay %v): blackhole until\n"+
			"ECMP rehash + multicast rehoming; gaps healed by TCP replay; stale quotes pulled.\n", sim.Millisecond),
			func(r FailoverResult) []SpineFailoverResult { return []SpineFailoverResult{r.Spine} }, []column[SpineFailoverResult]{
				{"victim", func(sp SpineFailoverResult) any { return fmt.Sprintf("spine%d", sp.Victim) }},
				{"TTR", func(sp SpineFailoverResult) any { return ttr(sp.RecoveredInRun, sp.TimeToRecovery) }},
				{"blackholed", func(sp SpineFailoverResult) any { return sp.Blackholed }},
				{"lost", func(sp SpineFailoverResult) any { return sp.LostFrames }},
				{"purged", func(sp SpineFailoverResult) any { return sp.Purged }},
				{"req/served", func(sp SpineFailoverResult) any { return fmt.Sprintf("%d/%d", sp.GapRequests, sp.ServedDgrams) }},
				{"replayed", func(sp SpineFailoverResult) any { return sp.RecoveredMsgs }},
				{"pulls/cancels", func(sp SpineFailoverResult) any { return fmt.Sprintf("%d/%d", sp.QuotePulls, sp.PulledOrders) }},
				{"orders", func(sp SpineFailoverResult) any { return sp.Orders }},
			}),
		table("\nWAN microwave path: rain fade, then a hard outage; no second path —\n"+
			"gap recovery over metro fiber is the only healer.\n",
			func(r FailoverResult) []WANFailoverResult { return []WANFailoverResult{r.WAN} }, []column[WANFailoverResult]{
				{"TTR", func(w WANFailoverResult) any { return ttr(w.RecoveredInRun, w.TimeToRecovery) }},
				{"published", func(w WANFailoverResult) any { return w.Published }},
				{"live", func(w WANFailoverResult) any { return w.Delivered }},
				{"recovered", func(w WANFailoverResult) any { return w.Recovered }},
				{"lost", func(w WANFailoverResult) any { return w.LostFrames }},
				{"blackholed", func(w WANFailoverResult) any { return w.Blackholed }},
				{"req/served", func(w WANFailoverResult) any { return fmt.Sprintf("%d/%d", w.Requests, w.ServedDgrams) }},
				{"unrecoverable", func(w WANFailoverResult) any { return w.Unrecoverable }},
			}),
	},
	appendix: func(seed int64, first FailoverResult) string {
		return fmt.Sprintf("\nFault timeline (seed %d), spine scenario:\n%s", seed, first.Spine.FaultLog) +
			fmt.Sprintf("Fault timeline (seed %d), WAN scenario:\n%s", seed, first.WAN.FaultLog)
	},
	manifests: func(r FailoverResult) []faultCell {
		return []faultCell{
			{cell: "spine", faults: logs("faults", r.Spine.FaultLog)},
			{cell: "wan-outage", faults: logs("faults", r.WAN.FaultLog)},
		}
	},
}
