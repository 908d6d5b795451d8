// Command replay drives the Figure 2(c) microburst second through a chosen
// network design's market-data path and reports the latency distribution a
// strategy would see — how each design holds up under the paper's peak
// workload.
//
// Usage:
//
//	replay -design commodity     # one 500ns switch hop
//	replay -design l1s           # one 5ns L1S hop
//	replay -design l1s-merge4    # four bursty feeds merged onto one NIC
package main

import (
	"flag"
	"fmt"
	"os"

	"math/rand"

	"tradenet/internal/capture"
	"tradenet/internal/device"
	"tradenet/internal/feed"
	"tradenet/internal/metrics"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
	"tradenet/internal/workload"
)

type latSink struct {
	port  *netsim.Port
	sched *sim.Scheduler
	h     *metrics.Histogram
}

func (s *latSink) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	s.h.Observe(int64(s.sched.Now().Sub(f.Origin)))
	f.Release()
}

func main() {
	var (
		design   = flag.String("design", "commodity", "commodity | l1s | l1s-merge4")
		millis   = flag.Int("millis", 100, "how much of the busy second to replay")
		seed     = flag.Int64("seed", 1, "random seed")
		pcapPath = flag.String("pcap", "", "write the strategy-side traffic to this pcap file")
	)
	flag.Parse()

	sched := sim.NewScheduler(*seed)
	h := metrics.NewHistogram()
	sink := &latSink{sched: sched, h: h}
	sink.port = netsim.NewPort(sched, sink, "strategy")

	var pw *capture.PcapWriter
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcap: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		pw = capture.NewPcapWriter(f, 0)
	}
	tap := func(fr *netsim.Frame, at sim.Time) {
		if pw != nil {
			pw.WriteFrame(at, fr.Data)
		}
	}

	src := pkt.UDPAddr{MAC: pkt.HostMAC(1), IP: pkt.HostIP(1), Port: 1}
	grp := pkt.MulticastGroup(1, 1)
	dst := pkt.UDPAddr{MAC: pkt.MulticastMAC(grp), IP: grp, Port: 2}
	end := sim.Time(sim.Duration(*millis) * sim.Millisecond)
	rng := rand.New(rand.NewSource(*seed))

	// Scale the Fig 2(c) process down to the replayed window.
	mk := func() *workload.MMPP { return workload.DefaultFig2c().Process() }

	// send transmits one generated frame. The generator reuses its buffer,
	// so the bytes are copied once, into a pooled frame the sink releases.
	send := func(tx *netsim.Port, wire []byte) {
		f := netsim.NewFrameBytes(wire)
		f.Origin = sched.Now()
		tx.Send(f)
	}

	var drops func() uint64
	switch *design {
	case "commodity":
		sw := device.NewCommoditySwitch(sched, "sw", 2, device.DefaultCommodityConfig())
		sw.JoinGroup(grp, 1)
		tx := netsim.NewPort(sched, nil, "exchange")
		tx.SetQueueCapacity(1 << 26)
		netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
		sw.Port(1).Tap = tap
		netsim.Connect(sw.Port(1), sink.port, units.Rate10G, 0)
		gen := feed.NewFrameGen(feed.ExchangeB, src, dst)
		workload.Generate(sched, mk(), 0, end, func() {
			frame, _ := gen.Next(rng)
			send(tx, frame)
		})
		drops = func() uint64 { return sw.Port(1).Drops + tx.Drops }
	case "l1s":
		sw := device.NewL1Switch(sched, "l1s", 2, device.DefaultL1SConfig())
		sw.Circuit(0, 1)
		tx := netsim.NewPort(sched, nil, "exchange")
		tx.SetQueueCapacity(1 << 26)
		netsim.Connect(tx, sw.Port(0), units.Rate10G, 0)
		sw.Port(1).Tap = tap
		netsim.Connect(sw.Port(1), sink.port, units.Rate10G, 0)
		gen := feed.NewFrameGen(feed.ExchangeB, src, dst)
		workload.Generate(sched, mk(), 0, end, func() {
			frame, _ := gen.Next(rng)
			send(tx, frame)
		})
		drops = func() uint64 { return sw.Port(1).Drops + tx.Drops }
	case "l1s-merge4":
		const k = 4
		sw := device.NewL1Switch(sched, "l1s", k+1, device.DefaultL1SConfig())
		for i := 0; i < k; i++ {
			tx := netsim.NewPort(sched, nil, fmt.Sprintf("feed%d", i))
			tx.SetQueueCapacity(1 << 26)
			netsim.Connect(tx, sw.Port(i), units.Rate10G, 0)
			sw.Circuit(i, k)
			txp := tx
			gen := feed.NewFrameGen(feed.ExchangeB, src, dst)
			workload.Generate(sched, mk(), 0, end, func() {
				frame, _ := gen.Next(rng)
				send(txp, frame)
			})
		}
		sw.Port(k).Tap = tap
		netsim.Connect(sw.Port(k), sink.port, units.Rate10G, 0)
		drops = func() uint64 { return sw.Port(k).Drops }
	default:
		fmt.Fprintf(os.Stderr, "unknown design %q\n", *design)
		os.Exit(2)
	}

	sched.Run()
	s := h.Summarize()
	fmt.Printf("replayed %v of the Fig 2(c) burst through %s\n", sim.Duration(*millis)*sim.Millisecond, *design)
	if pw != nil {
		fmt.Printf("wrote %d frames to %s\n", pw.Frames, *pcapPath)
	}
	fmt.Printf("delivered %d frames, dropped %d\n", s.Count, drops())
	fmt.Println(metrics.Table(
		[]string{"metric", "latency"},
		[][]string{
			{"min", sim.Duration(s.Min).String()},
			{"median", sim.Duration(s.Median).String()},
			{"p99", sim.Duration(s.P99).String()},
			{"max", sim.Duration(s.Max).String()},
		}))
}
