package core

import (
	"fmt"
	"math/rand"
	"strings"

	"tradenet/internal/colo"
	"tradenet/internal/device"
	"tradenet/internal/feed"
	"tradenet/internal/metrics"
	"tradenet/internal/sim"
	"tradenet/internal/workload"
)

// printTable prints a report with each line's trailing padding trimmed: a
// table pads its last column, and an Output comment cannot hold trailing
// spaces.
func printTable(report fmt.Stringer) {
	for _, line := range strings.Split(strings.TrimSuffix(report.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// Build a small trading plant on the leaf-spine design, move the market,
// and watch orders complete the loop.
func Example_quickstart() {
	// A scaled-down version of the paper's scenario: a leaf-spine fabric
	// with an exchange leaf, normalizers, strategies, and order gateways,
	// each software function costing 2 µs.
	sc := SmallScenario()
	fmt.Printf("building Design 1 plant: %d servers (%d normalizers, %d strategies, %d gateways)\n",
		sc.Servers(), sc.Normalizers, sc.Strategies, sc.Gateways)

	plant := NewDesign1(sc, device.DefaultCommodityConfig())

	// Publish market-data bursts and measure tick-to-trade: the time from
	// the exchange emitting an event to a strategy's order (re)entering the
	// exchange — through normalizer, strategy, and gateway.
	rt := plant.MeasureRoundTrip(4)

	fmt.Printf("\norders completing the loop: %d\n", rt.Orders)
	fmt.Printf("mean tick-to-trade:         %v\n", rt.Mean())
	fmt.Printf("  software (3 hops @ %v):   %v\n", sc.FnLatency, rt.SoftwareTime)
	fmt.Printf("  network (%d switch hops): %v (%.0f%% of total)\n",
		rt.SwitchHops, rt.NetworkTime(), rt.NetworkShare()*100)
	fmt.Println("\nthe §4.1 observation: with commodity switches, roughly half the")
	fmt.Println("round trip is spent inside the network.")
	// Output:
	// building Design 1 plant: 16 servers (2 normalizers, 12 strategies, 2 gateways)
	//
	// orders completing the loop: 33
	// mean tick-to-trade:         15.199µs
	//   software (3 hops @ 2µs):   6µs
	//   network (12 switch hops): 9.199µs (61% of total)
	//
	// the §4.1 observation: with commodity switches, roughly half the
	// round trip is spent inside the network.
}

// Run the same trading workload through all three §4 designs — commodity
// leaf-spine, Layer-1 switches, and the latency-equalized cloud — and
// compare where the time goes.
func Example_designcompare() {
	sc := SmallScenario()
	printTable(RunDesignComparison(sc, 4))

	// The cloud's fairness guarantee, demonstrated directly: with the
	// equalizer on, tenants in different zones see identical delivery
	// times; without it, placement decides who wins.
	lats := []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}

	eq := NewDesign2(sc, lats, true)
	eqSkew := recordSkew(eq)
	eq.MeasureRoundTrip(3)
	skewEq, _ := eqSkew()

	raw := NewDesign2(sc, lats, false)
	rawSkew := recordSkew(raw)
	raw.MeasureRoundTrip(3)
	skewRaw, _ := rawSkew()

	fmt.Printf("\ncloud delivery skew across tenants: equalized %v, unequalized %v\n", skewEq, skewRaw)
	fmt.Println("fairness costs latency: every delivery is padded to the slowest tenant's path.")
	// Output:
	// Designs 1/3/2: tick-to-trade round trip (§4)
	// design                 sw-hops  fn-hops  mean RT     net time    switch lat  net share  orders
	// ---------------------  -------  -------  ----------  ----------  ----------  ---------  ------
	// Design 1 (leaf-spine)  12       3        15.199µs    9.199µs     6µs         61%        33
	// Design 3 (L1S)         4        3        8.766µs     2.766µs     170ns       32%        33
	// Design 2 (cloud)       0        1        155.948µs   153.948µs   0ps         99%        33
	// switch-latency ratio D1/D3: 35x (paper: ~two orders of magnitude per hop: 500ns vs 5-6ns)
	//
	// cloud delivery skew across tenants: equalized 0ps, unequalized 15µs
	// fairness costs latency: every delivery is padded to the slowest tenant's path.
}

// Generate the paper's Figure 2(b) trading day for one stock, find the
// busiest second, then zoom into it at 100 µs resolution (Figure 2c) — the
// workload that sets the per-event budgets trading systems must meet.
func Example_burstyday() {
	rng := rand.New(rand.NewSource(7))

	day := workload.Fig2bDay(rng, workload.DefaultFig2b())
	openSec := int(workload.SessionOpenHour * 3600)
	closeSec := int(workload.SessionCloseHour * 3600)
	med := day.Median(func(i int) bool { return i >= openSec && i < closeSec })
	busyIdx, busiest := day.Busiest()

	fmt.Println("Figure 2(b): one stock's BBO-affecting options events, 1s windows")
	fmt.Printf("  session median %d events/s, busiest second %d events at %s\n",
		med, busiest, day.WindowStart(busyIdx))
	sparkline("hourly profile", hourly(day, openSec, closeSec))

	fmt.Println("\nFigure 2(c): inside the busiest second, 100µs windows")
	sec := workload.Fig2cSecond(rng, workload.DefaultFig2c(), nil)
	_, top := sec.Busiest()
	fmt.Printf("  median window %d events, busiest window %d events\n", sec.Median(nil), top)
	sparkline("within-second profile (10ms bins)", rebin(sec, 100))

	fmt.Println("\nper-event budgets (§3):")
	fmt.Printf("  to absorb the busiest second:      %v/event\n",
		workload.PerEventBudget(busiest, sim.Second))
	fmt.Printf("  to absorb the busiest 100µs burst: %v/event\n",
		workload.PerEventBudget(top, 100*sim.Microsecond))
	// Output:
	// Figure 2(b): one stock's BBO-affecting options events, 1s windows
	//   session median 340797 events/s, busiest second 1662452 events at 34203s
	//   hourly profile: █▅▄▃▃▃▃▃▃▃▃▄▆
	//
	// Figure 2(c): inside the busiest second, 100µs windows
	//   median window 129 events, busiest window 1166 events
	//   within-second profile (10ms bins): ▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▆▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▃▇▂▂▂▂▂▂▂▂▂▂▂▂▂▂█▃▂▂▂▂▂▇▂▂▃▂▂▂▂▂▂▂▂▂▅▂▂▂▂▂▂▆▂▇▃▂▂▂▂▂
	//
	// per-event budgets (§3):
	//   to absorb the busiest second:      601.521ns/event
	//   to absorb the busiest 100µs burst: 85.763ns/event
}

func hourly(day *metrics.WindowSeries, openSec, closeSec int) []int64 {
	var out []int64
	for h := openSec; h < closeSec; h += 1800 {
		var sum int64
		for s := h; s < h+1800 && s < day.Len(); s++ {
			sum += day.Count(s)
		}
		out = append(out, sum)
	}
	return out
}

func rebin(w *metrics.WindowSeries, factor int) []int64 {
	var out []int64
	for i := 0; i < w.Len(); i += factor {
		var sum int64
		for j := i; j < i+factor && j < w.Len(); j++ {
			sum += w.Count(j)
		}
		out = append(out, sum)
	}
	return out
}

func sparkline(label string, vals []int64) {
	blocks := []rune("▁▂▃▄▅▆▇█")
	var max int64 = 1
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		b.WriteRune(blocks[int(v*int64(len(blocks)-1)/max)])
	}
	fmt.Printf("  %s: %s\n", label, b.String())
}

// The §4.3 trade-off. Layer-1 switches deliver feeds in nanoseconds, but a
// strategy with one NIC that wants several normalizers' outputs must merge
// them — and merged bursty feeds exceed the line rate, producing queueing
// and loss exactly as the paper warns.
func Example_l1smerge() {
	fmt.Println("sweeping merge fan-in: k bursty feeds onto one 10G strategy NIC")
	fmt.Println()
	printTable(RunMergeBottleneck([]int{1, 2, 4, 8}, 50, 1))
	fmt.Println(`
reading the table: one feed rides through at wire speed. As fan-in
grows the offered load crosses the line rate; first queueing delay climbs
(latency), then the merge buffer overflows (loss). The alternatives are a
NIC per feed (which does not scale) or capping subscriptions (which caps
how finely normalizers can partition) — §4.3's dilemma.`)

	// The subscription-cap workaround, on the real plant: capping each
	// strategy to one normalizer removes every merge port.
	sc := SmallScenario()
	uncapped := mergePorts(NewDesign3(sc, 0))
	capped := mergePorts(NewDesign3(sc, 1))
	fmt.Printf("\nmerge ports on the normalizer→strategy network: uncapped %d, capped-to-1 %d\n",
		uncapped["norm-strat"], capped["norm-strat"])
	// Output:
	// sweeping merge fan-in: k bursty feeds onto one 10G strategy NIC
	//
	// L1S merge bottleneck (§4.3): bursty feeds onto one 10G output
	// fan-in  offered  mean queue  p99 e2e     loss
	// ------  -------  ----------  ----------  -----
	// 1       0.27     0ps         224.395µs   0.0%
	// 2       0.52     12.157µs    272.63µs    0.0%
	// 4       1.13     129.045µs   423.625µs   14.5%
	// 8       2.31     216.392µs   532.677µs   56.4%
	//
	// reading the table: one feed rides through at wire speed. As fan-in
	// grows the offered load crosses the line rate; first queueing delay climbs
	// (latency), then the merge buffer overflows (loss). The alternatives are a
	// NIC per feed (which does not scale) or capping subscriptions (which caps
	// how finely normalizers can partition) — §4.3's dilemma.
	//
	// merge ports on the normalizer→strategy network: uncapped 12, capped-to-1 0
}

// How production feed plants survive loss. The same sequenced feed rides
// two diverse WAN paths (microwave, fast but rain-faded; fiber, slow but
// clean); a gap-filling arbiter takes the first copy of each datagram; and
// for the rare datagram both paths lose, a TCP gap-recovery request replays
// it from the exchange's retain buffer.
func Example_resilientfeed() {
	fmt.Println("=== layer 1: diverse paths + A/B arbitration ===")
	fmt.Print(RunDualPathWAN(5000, 1))

	fmt.Println("\n=== layer 2: gap recovery for doubly-lost data ===")
	// Build the pieces directly: a retained feed, a receiver that loses
	// two datagrams outright, and the request/replay exchange.
	packer := feed.NewPacker(feed.Internal, 1)
	retain := feed.NewRetainBuffer(1, 1024)
	var dgrams [][]byte
	var m feed.Msg
	m.Type = feed.MsgAddOrder
	m.SetSymbol("AAPL")
	for i := 0; i < 10; i++ {
		m.OrderID = uint64(i)
		packer.Add(&m)
		packer.Flush(func(d []byte) {
			cp := append([]byte(nil), d...)
			retain.Retain(cp)
			dgrams = append(dgrams, cp)
		})
	}
	server := feed.NewRecoveryServer(retain)

	var wire []byte // the request/response "stream"
	client := feed.NewRecoveryClient(1, func(req []byte) { wire = append(wire, req...) })
	live, recovered := 0, 0
	for i, d := range dgrams {
		if i == 4 || i == 5 {
			continue // lost on every path
		}
		client.Consume(d, func(*feed.Msg) { live++ })
	}
	var resp []byte
	server.Receive(wire, func(b []byte) { resp = append(resp, b...) })
	client.ReceiveRecovery(resp, func(*feed.Msg) { recovered++ })
	fmt.Printf("live messages: %d, recovered via replay: %d (of 10 published)\n",
		live, recovered)

	fmt.Println("\n=== why carry microwave at all? ===")
	sched := sim.NewScheduler(1)
	fiber := colo.NewCircuit(sched, colo.Carteret, colo.Secaucus, colo.DefaultFiber(), discard, discard)
	microwave := colo.NewCircuit(sched, colo.Carteret, colo.Secaucus, colo.DefaultMicrowave(), discard, discard)
	adv := fiber.Latency - microwave.Latency
	fmt.Printf("microwave beats fiber Carteret→Secaucus by %v one-way —\n", adv)
	fmt.Println("worth every rain fade, which is what the layers above absorb.")
	// Output:
	// === layer 1: diverse paths + A/B arbitration ===
	// Dual-path WAN delivery (§2): Carteret→Secaucus, microwave + fiber, A/B arbitrated
	//   messages delivered: 5000   gaps after arbitration: 0
	//   microwave wins: 4965   fiber wins: 35   rain losses on microwave: 35
	//   median delivery latency: clear 66.526µs, rain 66.526µs
	//   every message arrives — rain shifts wins (and latency) to fiber, and the
	//   microwave advantage returns with the sun.
	//
	// === layer 2: gap recovery for doubly-lost data ===
	// live messages: 8, recovered via replay: 2 (of 10 published)
	//
	// === why carry microwave at all? ===
	// microwave beats fiber Carteret→Secaucus by 61.938µs one-way —
	// worth every rain fade, which is what the layers above absorb.
}
