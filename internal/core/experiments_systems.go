package core

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tradenet/internal/colo"
	"tradenet/internal/device"
	"tradenet/internal/feed"
	"tradenet/internal/manifest"
	"tradenet/internal/mcast"
	"tradenet/internal/metrics"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
	"tradenet/internal/workload"
)

// DesignComparison is E5+E6(+E12): round trips through all three designs.
type DesignComparison struct {
	Rows []RoundTrip
	// Artifacts are the per-design run manifests (empty unless the
	// scenario arms Telemetry).
	Artifacts []*manifest.Artifact
}

// RunDesignComparison measures the common scenario through Designs 1, 3,
// and 2 (equalized cloud), one plant alive at a time.
func RunDesignComparison(sc Scenario, bursts int) DesignComparison {
	var out DesignComparison
	build := StandardDesigns(sc)
	for _, n := range []int{1, 3, 2} {
		p := build[n-1]()
		out.Rows = append(out.Rows, p.MeasureRoundTrip(bursts))
		if sc.Telemetry != nil {
			out.Artifacts = append(out.Artifacts, p.Tel.Artifact("designs", fmt.Sprintf("design%d", n), "", sc, p.Sched))
		}
	}
	return out
}

// String renders the design comparison.
func (r DesignComparison) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, rt := range r.Rows {
		rows = append(rows, []string{
			rt.Design,
			fmt.Sprintf("%d", rt.SwitchHops),
			fmt.Sprintf("%d", rt.SoftwareHops),
			rt.Mean().String(),
			rt.NetworkTime().String(),
			rt.SwitchLatency.String(),
			fmt.Sprintf("%.0f%%", rt.NetworkShare()*100),
			fmt.Sprintf("%d", rt.Orders),
		})
	}
	s := "Designs 1/3/2: tick-to-trade round trip (§4)\n" +
		metrics.Table([]string{"design", "sw-hops", "fn-hops", "mean RT", "net time", "switch lat", "net share", "orders"}, rows)
	if len(r.Rows) >= 2 && r.Rows[1].SwitchLatency > 0 {
		s += fmt.Sprintf("switch-latency ratio D1/D3: %.0fx (paper: ~two orders of magnitude per hop: 500ns vs 5-6ns)\n",
			float64(r.Rows[0].SwitchLatency)/float64(r.Rows[1].SwitchLatency))
	}
	return s
}

// MrouteOverflowResult is E7: the latency/loss cliff when the multicast
// route table overflows into software forwarding.
type MrouteOverflowResult struct {
	Groups              int
	Capacity            int
	HWMean              sim.Duration
	SWMean              sim.Duration
	HWDelivered, HWSent uint64
	SWDelivered, SWSent uint64
}

// RunMrouteOverflow joins `groups` multicast groups on a switch with the
// given table capacity, blasts frames round-robin across them, and measures
// delivery latency and loss separately for hardware- and software-forwarded
// groups.
func RunMrouteOverflow(groups, capacity, framesPerGroup int, seed int64) MrouteOverflowResult {
	sched := sim.NewScheduler(seed)
	cfg := device.DefaultCommodityConfig()
	cfg.MrouteCapacity = capacity
	sw := device.NewCommoditySwitch(sched, "sw", 2, cfg)
	tx := netsim.NewPort(sched, nil, "tx")
	tx.SetQueueCapacity(1 << 28)
	netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)

	res := MrouteOverflowResult{Groups: groups, Capacity: capacity}
	hwLat, swLat := metrics.NewHistogram(), metrics.NewHistogram()
	// Classify each delivery by group index: the first capacity groups
	// joined hold hardware entries.
	sink := netsim.HandlerFunc(func(_ *netsim.Port, f *netsim.Frame) {
		var uf pkt.UDPFrame
		if err := pkt.ParseUDPFrame(f.Data, &uf); err != nil {
			return
		}
		idx := int(uf.IP.Dst[2])<<8 | int(uf.IP.Dst[3])
		lat := int64(sched.Now().Sub(f.Origin))
		if idx < capacity {
			hwLat.Observe(lat)
			res.HWDelivered++
		} else {
			swLat.Observe(lat)
			res.SWDelivered++
		}
	})
	netsim.Connect(sw.Port(1), netsim.NewPort(sched, sink, "rx"), units.Rate10G, 0)

	gs := make([]pkt.IP4, groups)
	inHW := make([]bool, groups)
	for i := range gs {
		gs[i] = pkt.MulticastGroup(1, uint16(i))
		inHW[i] = sw.JoinGroup(gs[i], 1)
	}
	src := pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 1}
	// Offer frames at 20% line rate, round-robin across groups: hardware
	// groups sail through; software groups hit the slow path's PPS limit.
	gap := 10 * units.SerializationDelay(200, units.Rate10G)
	for i := 0; i < groups*framesPerGroup; i++ {
		g := gs[i%groups]
		hw := inHW[i%groups]
		at := sim.Time(sim.Duration(i) * gap)
		sched.At(at, func() {
			dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(g), IP: g, Port: 9}
			f := &netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 0, make([]byte, 150)), Origin: sched.Now()}
			if hw {
				res.HWSent++
			} else {
				res.SWSent++
			}
			tx.Send(f)
		})
	}
	sched.Run()
	res.HWMean = sim.Duration(hwLat.Mean())
	res.SWMean = sim.Duration(swLat.Mean())
	return res
}

// String renders the overflow cliff.
func (r MrouteOverflowResult) String() string {
	lossHW := 1 - float64(r.HWDelivered)/float64(r.HWSent)
	lossSW := 1 - float64(r.SWDelivered)/float64(r.SWSent)
	return fmt.Sprintf(`Mroute table overflow (§3): %d groups, table holds %d
  hardware groups: mean latency %v, loss %.1f%%
  software groups: mean latency %v, loss %.1f%%  ← the overflow cliff
`, r.Groups, r.Capacity, r.HWMean, lossHW*100, r.SWMean, lossSW*100)
}

// GenerationsResult is E8: switch trends across hardware generations.
type GenerationsResult struct {
	Measured []sim.Duration // per-hop latency measured through each gen
}

// RunGenerations measures one-hop forwarding latency through each
// generation's switch model.
func RunGenerations() GenerationsResult {
	var out GenerationsResult
	for _, gen := range device.Generations {
		sched := sim.NewScheduler(1)
		sw := device.NewCommoditySwitch(sched, "sw", 2, gen.Config())
		sw.Learn(pkt.HostMAC(2), 1)
		tx := netsim.NewPort(sched, nil, "tx")
		netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
		var at sim.Time
		rx := netsim.NewPort(sched, netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) { at = sched.Now() }), "rx")
		netsim.Connect(sw.Port(1), rx, units.Rate10G, 0)
		frame := pkt.AppendUDPFrame(nil,
			pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 1},
			pkt.UDPAddr{MAC: pkt.HostMAC(2), IP: pkt.HostIP(2), Port: 2}, 0, make([]byte, 100))
		ser := units.SerializationDelay(pkt.WireSize(len(frame))+netsim.FrameOverheadBytes, units.Rate10G)
		sched.At(0, func() { tx.Send(&netsim.Frame{Data: frame}) })
		sched.Run()
		out.Measured = append(out.Measured, sim.Duration(at)-ser)
	}
	return out
}

// String renders the generation table with the paper's trend claims.
func (r GenerationsResult) String() string {
	rows := make([][]string, 0, len(device.Generations))
	for i, g := range device.Generations {
		rows = append(rows, []string{
			fmt.Sprintf("%d", g.Year),
			g.Latency.String(),
			r.Measured[i].String(),
			fmt.Sprintf("%d", g.McastGroups),
			g.ASICBandwidth.String(),
		})
	}
	var b strings.Builder
	b.WriteString("Switch generations (§3 trends)\n")
	b.WriteString(metrics.Table([]string{"year", "spec latency", "measured hop", "mcast groups", "ASIC bw"}, rows))
	fmt.Fprintf(&b, "latency growth: +%.0f%% (paper: ~+20%%/decade)\n", (device.LatencyGrowth()-1)*100)
	fmt.Fprintf(&b, "mcast group growth: +%.0f%% (paper: ~+80%%) vs market data +500%%\n", (device.McastGroupGrowth()-1)*100)
	fmt.Fprintf(&b, "bandwidth growth: %.0fx (roughly doubling per generation)\n", device.BandwidthGrowth())
	b.WriteString("software hop reference: <1µs and falling (§3)\n")
	return b.String()
}

// MergeRow is one fan-in level of E9.
type MergeRow struct {
	FanIn       int
	OfferedLoad float64 // fraction of egress line rate
	Delivered   uint64
	Dropped     uint64
	MeanQueue   sim.Duration
	P99Latency  sim.Duration
}

// MergeResult is E9: the L1S merge bottleneck under bursty feeds.
type MergeResult struct {
	Rows []MergeRow
}

// RunMergeBottleneck merges fanIn bursty feeds onto one 10G L1S output for
// each fan-in level, measuring queueing and loss. Each source offers ~27%
// of line rate on average with 8x bursts (the Fig 2(c) structure), so the
// merged feed crosses saturation between fan-in 2 and 4 — "merged feeds can
// easily exceed the available bandwidth, leading to latency from queuing or
// packet loss" (§4.3).
func RunMergeBottleneck(fanIns []int, millis int, seed int64) MergeResult {
	var out MergeResult
	for _, k := range fanIns {
		sched := sim.NewScheduler(seed)
		cfg := device.DefaultL1SConfig()
		cfg.MergeQueueBytes = 256 * 1024
		sw := device.NewL1Switch(sched, "l1s", k+1, cfg)
		lat := metrics.NewHistogram()
		netsim.Connect(sw.Port(k), netsim.NewPort(sched, latencySink(sched, lat), "rx"), units.Rate10G, 0)

		end := sim.Time(sim.Duration(millis) * sim.Millisecond)
		var sent uint64
		for i := 0; i < k; i++ {
			txp := netsim.NewPort(sched, nil, fmt.Sprintf("tx%d", i))
			txp.SetQueueCapacity(1 << 26)
			netsim.Connect(txp, sw.Port(i), units.Rate10G, 0)
			sw.Circuit(i, k)
			// ~27% load per source: 600-byte frames at a bursty ~560k/s.
			proc := workload.NewMMPP(
				workload.MMPPState{Rate: 400_000, MeanDwell: 2 * sim.Millisecond},
				workload.MMPPState{Rate: 3_200_000, MeanDwell: 120 * sim.Microsecond},
			)
			src := pkt.UDPAddr{MAC: pkt.HostMAC(uint32(i + 1)), IP: pkt.HostIP(uint32(i + 1)), Port: 1}
			dst := pkt.UDPAddr{MAC: pkt.HostMAC(99), IP: pkt.HostIP(99), Port: 2}
			payload := make([]byte, 558)
			workload.Generate(sched, proc, 0, end, func() {
				sent++
				f := &netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 0, payload), Origin: sched.Now()}
				txp.Send(f)
			})
		}
		sched.Run()
		mergePort := sw.Port(k)
		row := MergeRow{
			FanIn:     k,
			Delivered: mergePort.TxFrames,
			Dropped:   mergePort.Drops,
		}
		// Offered load: 600B frames (+overhead) × arrival rate vs 10G.
		wire := float64(pkt.WireSize(600)+netsim.FrameOverheadBytes) * 8
		row.OfferedLoad = float64(sent) / (float64(millis) / 1000) * wire / float64(units.Rate10G)
		if mergePort.TxFrames > 0 {
			row.MeanQueue = mergePort.QueueDelay / sim.Duration(mergePort.TxFrames)
		}
		row.P99Latency = sim.Duration(lat.P99())
		out.Rows = append(out.Rows, row)
	}
	return out
}

// latencySink records each arriving frame's age (now − Origin) into h.
func latencySink(sched *sim.Scheduler, h *metrics.Histogram) netsim.Handler {
	return netsim.HandlerFunc(func(_ *netsim.Port, f *netsim.Frame) {
		h.Observe(int64(sched.Now().Sub(f.Origin)))
	})
}

// String renders the merge sweep.
func (r MergeResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		loss := float64(row.Dropped) / float64(row.Delivered+row.Dropped) * 100
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.FanIn),
			fmt.Sprintf("%.2f", row.OfferedLoad),
			row.MeanQueue.String(),
			row.P99Latency.String(),
			fmt.Sprintf("%.1f%%", loss),
		})
	}
	return "L1S merge bottleneck (§4.3): bursty feeds onto one 10G output\n" +
		metrics.Table([]string{"fan-in", "offered", "mean queue", "p99 e2e", "loss"}, rows)
}

// OverheadRow is one feed's E10 numbers.
type OverheadRow struct {
	Feed        string
	HeaderShare float64 // Ethernet+IP+UDP+unit header share of wire bytes
	CompactSave float64 // bytes saved by the §5 compact transport
}

// OverheadResult is E10: protocol header overhead.
type OverheadResult struct {
	Rows []OverheadRow
	// HeaderCost40ns is the §5 claim: processing Ethernet+IP+TCP headers at
	// 10G costs ~40 ns of serialization alone.
	HeaderCostNs float64
}

// RunHeaderOverhead measures header share over generated mid-day traffic
// and the compact-transport ablation's savings.
func RunHeaderOverhead(frames int, seed int64) OverheadResult {
	out := OverheadResult{
		HeaderCostNs: units.SerializationDelay(
			pkt.EthernetHeaderLen+pkt.IPv4HeaderLen+pkt.TCPHeaderLen, units.Rate10G).Nanoseconds(),
	}
	src := pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 30000}
	grp := pkt.IP4{239, 1, 0, 1}
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 30001}
	for _, v := range []*feed.Variant{feed.ExchangeA, feed.ExchangeB, feed.ExchangeC} {
		rng := rand.New(rand.NewSource(seed))
		g := feed.NewFrameGen(v, src, dst)
		var total, headers, compact int64
		for i := 0; i < frames; i++ {
			frame, _ := g.Next(rng)
			total += int64(len(frame))
			headers += pkt.UDPOverhead + feed.UnitHeaderLen
			// Compact ablation: Ethernet + 8-byte compact header instead of
			// Ethernet+IP+UDP+unit header.
			compact += int64(len(frame)) - (pkt.IPv4HeaderLen + pkt.UDPHeaderLen + feed.UnitHeaderLen) + pkt.CompactHeaderLen
		}
		out.Rows = append(out.Rows, OverheadRow{
			Feed:        v.Name,
			HeaderShare: float64(headers) / float64(total),
			CompactSave: 1 - float64(compact)/float64(total),
		})
	}
	return out
}

// String renders the overhead table.
func (r OverheadResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Feed,
			fmt.Sprintf("%.0f%%", row.HeaderShare*100),
			fmt.Sprintf("%.0f%%", row.CompactSave*100),
		})
	}
	return fmt.Sprintf("Header overhead (§3, §5): paper cites 25–40%% headers; Eth+IP+TCP costs %.0f ns at 10G\n",
		r.HeaderCostNs) +
		metrics.Table([]string{"feed", "header share", "compact saves"}, rows)
}

// PartitionScalingResult is E11: partition growth vs mroute capacity.
type PartitionScalingResult struct {
	Rows []PartitionScalingRow
}

// PartitionScalingRow is one point in time.
type PartitionScalingRow struct {
	Month       int
	PerStrategy int
	TotalGroups int
	Plans       []mcast.CapacityPlan // one per switch generation
}

// RunPartitionScaling tracks the §3 growth (600 → 1300 partitions per
// representative strategy over 24 months) across feedFamilies concurrent
// partitioned feeds, against each switch generation's table.
func RunPartitionScaling(feedFamilies int) PartitionScalingResult {
	var out PartitionScalingResult
	for mo := 0; mo <= 24; mo += 6 {
		per := mcast.PartitionGrowth(600, mo, 1300, 24)
		row := PartitionScalingRow{Month: mo, PerStrategy: per, TotalGroups: per * feedFamilies}
		for _, gen := range device.Generations {
			row.Plans = append(row.Plans, mcast.Plan(row.TotalGroups, gen.McastGroups))
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the scaling table.
func (r PartitionScalingResult) String() string {
	header := []string{"month", "parts/strat", "total groups"}
	for _, gen := range device.Generations {
		header = append(header, fmt.Sprintf("sw@%d overflow", gen.Year))
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{
			fmt.Sprintf("%d", row.Month),
			fmt.Sprintf("%d", row.PerStrategy),
			fmt.Sprintf("%d", row.TotalGroups),
		}
		for _, p := range row.Plans {
			cells = append(cells, fmt.Sprintf("%d", p.Software))
		}
		rows = append(rows, cells)
	}
	return "Partition growth vs mroute tables (§3: 600→1300 over 2 years)\n" +
		metrics.Table(header, rows)
}

// BudgetResult is E13: real Go codec throughput vs the paper's per-event
// budgets.
type BudgetResult struct {
	DecodeNsPerMsg    float64
	NormalizeNsPerMsg float64
	Budget1s          float64 // ns/event to survive the busiest second
	Budget100us       float64 // ns/event to survive the busiest 100µs
}

// RunPerEventBudget times the real decode and decode+re-encode paths over n
// messages and compares them to the §3 budgets.
//
//simlint:allow wallclock: deliberately measures real host codec throughput (wall time per message) to compare against the simulated per-event budget; nothing here feeds back into simulated time
func RunPerEventBudget(n int) BudgetResult {
	var m feed.Msg
	m.Type = feed.MsgAddOrder
	m.SetSymbol("AAPL")
	m.Qty, m.Price = 100, 15025
	buf := feed.ExchangeB.Append(nil, &m)

	var out feed.Msg
	start := time.Now()
	for i := 0; i < n; i++ {
		feed.Decode(buf, &out)
	}
	decode := float64(time.Since(start).Nanoseconds()) / float64(n)

	enc := make([]byte, 0, 64)
	start = time.Now()
	for i := 0; i < n; i++ {
		feed.Decode(buf, &out)
		enc = feed.Internal.Append(enc[:0], &out)
	}
	norm := float64(time.Since(start).Nanoseconds()) / float64(n)

	return BudgetResult{
		DecodeNsPerMsg:    decode,
		NormalizeNsPerMsg: norm,
		Budget1s:          workload.PerEventBudget(1_500_000, sim.Second).Nanoseconds(),
		Budget100us:       workload.PerEventBudget(1066, 100*sim.Microsecond).Nanoseconds(),
	}
}

// String renders the feasibility comparison.
func (r BudgetResult) String() string {
	verdict := func(cost, budget float64) string {
		if cost <= budget {
			return "feasible"
		}
		return "OVER BUDGET"
	}
	return fmt.Sprintf(`Per-event budgets (§3) vs measured Go codec costs
  busiest-second budget: %.0f ns/event; busiest-100µs budget: %.0f ns/event
  decode:            %.1f ns/msg (%s for 1s, %s for 100µs)
  decode+normalize:  %.1f ns/msg (%s for 1s, %s for 100µs)
`,
		r.Budget1s, r.Budget100us,
		r.DecodeNsPerMsg, verdict(r.DecodeNsPerMsg, r.Budget1s), verdict(r.DecodeNsPerMsg, r.Budget100us),
		r.NormalizeNsPerMsg, verdict(r.NormalizeNsPerMsg, r.Budget1s), verdict(r.NormalizeNsPerMsg, r.Budget100us))
}

// WANRow is one circuit of E14.
type WANRow struct {
	Pair             string
	FiberLatency     sim.Duration
	MicrowaveLatency sim.Duration
	Advantage        sim.Duration
	RainLossPct      float64
	ClearLossPct     float64
}

// WANResult is E14: microwave vs fiber between the NJ colos.
type WANResult struct {
	Rows                 []WANRow
	FiberBW, MicrowaveBW units.Bandwidth
}

// RunWAN builds each inter-colo pair both ways and measures latency and
// rain loss.
func RunWAN(framesPerTest int, seed int64) WANResult {
	pairs := [][2]colo.Facility{
		{colo.Mahwah, colo.Secaucus},
		{colo.Carteret, colo.Secaucus},
		{colo.Carteret, colo.Mahwah},
	}
	out := WANResult{
		FiberBW:     colo.DefaultFiber().Bandwidth,
		MicrowaveBW: colo.DefaultMicrowave().Bandwidth,
	}
	for _, p := range pairs {
		sched := sim.NewScheduler(seed)
		fb := colo.NewCircuit(sched, p[0], p[1], colo.DefaultFiber(), discard, discard)
		mw := colo.NewCircuit(sched, p[0], p[1], colo.DefaultMicrowave(), discard, discard)

		lossRate := func(rain bool) float64 {
			s := sim.NewScheduler(seed)
			var n int
			cnt := netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) { n++ })
			c := colo.NewCircuit(s, p[0], p[1], colo.DefaultMicrowave(), discard, cnt)
			c.SetRaining(rain)
			for i := 0; i < framesPerTest; i++ {
				i := i
				s.At(sim.Time(i)*sim.Time(10*sim.Microsecond), func() {
					c.PortA.Send(&netsim.Frame{Data: make([]byte, 100)})
				})
			}
			s.Run()
			return 1 - float64(n)/float64(framesPerTest)
		}

		out.Rows = append(out.Rows, WANRow{
			Pair:             p[0].Name + "↔" + p[1].Name,
			FiberLatency:     fb.Latency,
			MicrowaveLatency: mw.Latency,
			Advantage:        fb.Latency - mw.Latency,
			RainLossPct:      lossRate(true) * 100,
			ClearLossPct:     lossRate(false) * 100,
		})
	}
	return out
}

// discard terminates the unused direction of a circuit.
var discard = netsim.HandlerFunc(func(*netsim.Port, *netsim.Frame) {})

// String renders the WAN table.
func (r WANResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Pair,
			row.FiberLatency.String(),
			row.MicrowaveLatency.String(),
			row.Advantage.String(),
			fmt.Sprintf("%.1f%%", row.RainLossPct),
			fmt.Sprintf("%.1f%%", row.ClearLossPct),
		})
	}
	return fmt.Sprintf("Inter-colo WAN (§2): microwave wins latency (%v vs %v bandwidth), loses in rain\n",
		r.MicrowaveBW, r.FiberBW) +
		metrics.Table([]string{"pair", "fiber", "microwave", "advantage", "rain loss", "clear loss"}, rows)
}

// GenerationRTResult is E8b: the end-to-end consequence of the §3 latency
// trend — the same Design 1 plant on decade-old versus current switches.
type GenerationRTResult struct {
	OldYear, NewYear int
	OldMean, NewMean sim.Duration
	// SwitchDelta is the predicted difference: 12 hops × latency delta.
	SwitchDelta sim.Duration
}

// RunGenerationRoundTrip measures the small-scenario Design 1 round trip on
// the oldest and newest switch generations.
func RunGenerationRoundTrip(sc Scenario, bursts int) GenerationRTResult {
	gens := device.Generations
	oldGen, newGen := gens[0], gens[len(gens)-1]
	dOld := NewDesign1(sc, oldGen.Config())
	rtOld := dOld.MeasureRoundTrip(bursts)
	dNew := NewDesign1(sc, newGen.Config())
	rtNew := dNew.MeasureRoundTrip(bursts)
	return GenerationRTResult{
		OldYear: oldGen.Year, NewYear: newGen.Year,
		OldMean: rtOld.Mean(), NewMean: rtNew.Mean(),
		SwitchDelta: 12 * (newGen.Latency - oldGen.Latency),
	}
}

// String renders the generation round-trip comparison.
func (r GenerationRTResult) String() string {
	return fmt.Sprintf(`Design 1 round trip across switch generations (§3 trend, end to end)
  %d switches: mean RT %v
  %d switches: mean RT %v
  regression: %v (predicted from 12 hops × latency delta: %v)
  the fabric got faster in bandwidth and slower in latency — and a trading
  round trip pays the latency 12 times.
`, r.OldYear, r.OldMean, r.NewYear, r.NewMean, r.NewMean-r.OldMean, r.SwitchDelta)
}
