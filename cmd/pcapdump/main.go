// Command pcapdump decodes a capture produced by the simulator's taps
// (cmd/replay -pcap, or any capture.PcapWriter) back into market-data
// messages: per-frame timestamps, the unit-header sequencing, and the
// decoded feed messages — the post-trade research workflow §2 describes
// ("for research, precise timestamps are necessary for understanding the
// ordering of market data events").
//
// Usage:
//
//	pcapdump -file capture.pcap            # summary statistics
//	pcapdump -file capture.pcap -v | head  # per-message dump
//	pcapdump -file capture.pcap -v -trace trace.json
//	                                       # annotate with flight-recorder spans
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"tradenet/internal/capture"
	"tradenet/internal/feed"
	"tradenet/internal/metrics"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// traceSpan is one Chrome trace event re-read from a flight-recorder export
// (internal/trace.WriteChrome): a [start, start+dur) interval in
// microseconds of virtual time.
type traceSpan struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		Trace uint64 `json:"trace"`
	} `json:"args"`
}

// loadTrace parses a flight-recorder Chrome trace export, sorted by start.
func loadTrace(path string) ([]traceSpan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []traceSpan
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Ts < spans[j].Ts })
	return spans, nil
}

// annotate returns the flight-recorder spans covering instant at, as
// "trace=<id> <where>:<cause>" fragments (capped at three).
func annotate(spans []traceSpan, at sim.Time) string {
	us := float64(at) / float64(sim.Microsecond)
	var parts []string
	for i := range spans {
		s := &spans[i]
		if s.Ts > us {
			break
		}
		if us < s.Ts+s.Dur {
			parts = append(parts, fmt.Sprintf("trace=%d %s:%s", s.Args.Trace, s.Name, s.Cat))
			if len(parts) == 3 {
				break
			}
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, ", ") + "]"
}

func main() {
	var (
		path      = flag.String("file", "", "pcap file to decode")
		verbose   = flag.Bool("v", false, "dump every message")
		tracePath = flag.String("trace", "", "flight-recorder Chrome trace JSON to annotate frames with")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "usage: pcapdump -file capture.pcap [-v]")
		os.Exit(2)
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "read: %v\n", err)
		os.Exit(1)
	}
	pkts, err := capture.ReadPcap(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse: %v\n", err)
		os.Exit(1)
	}
	var spans []traceSpan
	if *tracePath != "" {
		spans, err = loadTrace(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
	}

	frameLens := metrics.NewHistogram()
	gaps := metrics.NewHistogram() // inter-frame gaps in ns
	typeCounts := map[feed.MsgType]int{}
	var msgs, badFrames int
	var lastAt sim.Time
	reasm := map[uint8]*feed.Reassembler{}

	for i, p := range pkts {
		frameLens.Observe(int64(p.Orig))
		if i > 0 {
			gaps.Observe(int64(p.At.Sub(lastAt)) / int64(sim.Nanosecond))
		}
		lastAt = p.At

		var uf pkt.UDPFrame
		if err := pkt.ParseUDPFrame(p.Data, &uf); err != nil {
			badFrames++
			continue
		}
		var h feed.UnitHeader
		if _, err := feed.DecodeUnitHeader(uf.Payload, &h); err != nil {
			badFrames++
			continue
		}
		r, ok := reasm[h.Unit]
		if !ok {
			r = feed.NewReassembler(h.Unit)
			// Captures can start mid-stream: accept whatever sequence the
			// first datagram carries.
			r.Resync(h.Seq)
			reasm[h.Unit] = r
		}
		at := p.At
		r.Consume(uf.Payload, func(m *feed.Msg) {
			msgs++
			typeCounts[m.Type]++
			if *verbose {
				fmt.Printf("%-14v unit=%d %-9s oid=%d", at, h.Unit, m.Type, m.OrderID)
				if m.Type == feed.MsgAddOrder || m.Type == feed.MsgTrade {
					fmt.Printf(" %s %s %d @%d", m.SymbolString(), m.Side, m.Qty, m.Price)
				}
				fmt.Print(annotate(spans, at))
				fmt.Println()
			}
		})
	}

	fmt.Printf("%s: %d frames, %d messages, %d undecodable frames\n",
		*path, len(pkts), msgs, badFrames)
	if spans != nil {
		ids := map[uint64]bool{}
		for i := range spans {
			ids[spans[i].Args.Trace] = true
		}
		fmt.Printf("%s: %d spans across %d traces\n", *tracePath, len(spans), len(ids))
	}
	fl := frameLens.Summarize()
	fmt.Println(metrics.Table(
		[]string{"metric", "frame bytes", "inter-frame gap"},
		[][]string{
			{"min", fmt.Sprint(fl.Min), sim.Duration(gaps.Min() * int64(sim.Nanosecond)).String()},
			{"median", fmt.Sprint(fl.Median), sim.Duration(gaps.Median() * int64(sim.Nanosecond)).String()},
			{"p99", fmt.Sprint(fl.P99), sim.Duration(gaps.P99() * int64(sim.Nanosecond)).String()},
			{"max", fmt.Sprint(fl.Max), sim.Duration(gaps.Max() * int64(sim.Nanosecond)).String()},
		}))
	var rows [][]string
	for _, t := range []feed.MsgType{feed.MsgAddOrder, feed.MsgOrderExecuted,
		feed.MsgReduceSize, feed.MsgModifyOrder, feed.MsgDeleteOrder, feed.MsgTrade, feed.MsgTime} {
		if typeCounts[t] > 0 {
			rows = append(rows, []string{t.String(), fmt.Sprint(typeCounts[t])})
		}
	}
	if len(rows) > 0 {
		fmt.Println(metrics.Table([]string{"message type", "count"}, rows))
	}
	// Per-unit loss accounting from the sequencing.
	for unit, r := range reasm {
		if m, g, lost, dups := r.Stats(); g > 0 || dups > 0 {
			fmt.Printf("unit %d: %d messages, %d gaps, %d lost, %d duplicates\n", unit, m, g, lost, dups)
		}
	}
}
