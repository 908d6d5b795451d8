package core

import (
	"fmt"

	"tradenet/internal/device"
	"tradenet/internal/metrics"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
	"tradenet/internal/workload"
)

// CorrelatedMergeResult compares merging independent bursty feeds against
// merging feeds whose bursts are coupled (§2: "bursts across different
// feeds are often correlated because the underlying market conditions are
// related"). Same long-run load either way; correlation concentrates the
// peaks, so the merged queue sees them simultaneously.
type CorrelatedMergeResult struct {
	FanIn            int
	IndependentP99   sim.Duration
	IndependentDrops uint64
	CorrelatedP99    sim.Duration
	CorrelatedDrops  uint64
}

// RunCorrelatedMerge merges fanIn feeds onto one 10G L1S output twice: once
// with independent per-feed burst processes, once with a shared burst
// condition, at matched average rates.
func RunCorrelatedMerge(fanIn, millis int, seed int64) CorrelatedMergeResult {
	res := CorrelatedMergeResult{FanIn: fanIn}
	// Calibrated so the average load is ~50% of line rate and a single
	// feed's burst still fits — only *coincident* bursts overload the
	// merge, which is precisely what correlation manufactures.
	const (
		quietRate = 150_000.0
		factor    = 8.0
	)
	quietDwell, burstDwell := 2*sim.Millisecond, 200*sim.Microsecond

	run := func(correlated bool) (sim.Duration, uint64) {
		sched := sim.NewScheduler(seed)
		sw := device.NewL1Switch(sched, "l1s", fanIn+1, device.DefaultL1SConfig())
		lat := metrics.NewHistogram()
		netsim.Connect(sw.Port(fanIn), netsim.NewPort(sched, latencySink(sched, lat), "rx"), units.Rate10G, 0)

		end := sim.Time(sim.Duration(millis) * sim.Millisecond)
		txs := make([]*netsim.Port, fanIn)
		for i := 0; i < fanIn; i++ {
			txs[i] = netsim.NewPort(sched, nil, fmt.Sprintf("tx%d", i))
			txs[i].SetQueueCapacity(1 << 26)
			netsim.Connect(txs[i], sw.Port(i), units.Rate10G, 0)
			sw.Circuit(i, fanIn)
		}
		payload := make([]byte, 558)
		send := func(feed int) {
			src := pkt.UDPAddr{MAC: pkt.HostMAC(uint32(feed + 1)), IP: pkt.HostIP(uint32(feed + 1)), Port: 1}
			dst := pkt.UDPAddr{MAC: pkt.HostMAC(99), IP: pkt.HostIP(99), Port: 2}
			txs[feed].Send(&netsim.Frame{Data: pkt.AppendUDPFrame(nil, src, dst, 0, payload), Origin: sched.Now()})
		}
		if correlated {
			rates := make([]float64, fanIn)
			for i := range rates {
				rates[i] = quietRate
			}
			cf := workload.NewCorrelatedFeeds(rates, factor, quietDwell, burstDwell)
			cf.Generate(sched, 0, end, send)
		} else {
			for i := 0; i < fanIn; i++ {
				i := i
				m := workload.NewMMPP(
					workload.MMPPState{Rate: quietRate, MeanDwell: quietDwell},
					workload.MMPPState{Rate: quietRate * factor, MeanDwell: burstDwell},
				)
				workload.Generate(sched, m, 0, end, func() { send(i) })
			}
		}
		sched.Run()
		return sim.Duration(lat.P99()), sw.Port(fanIn).Drops
	}

	res.IndependentP99, res.IndependentDrops = run(false)
	res.CorrelatedP99, res.CorrelatedDrops = run(true)
	return res
}

// String renders the comparison.
func (r CorrelatedMergeResult) String() string {
	return fmt.Sprintf(`Correlated vs independent bursts into a %d-way merge (§2)
  independent bursts: p99 %v, drops %d
  correlated bursts:  p99 %v, drops %d
  correlation defeats statistical multiplexing: all feeds peak at once, so
  the merge sees the sum of the bursts, not their average.
`, r.FanIn, r.IndependentP99, r.IndependentDrops, r.CorrelatedP99, r.CorrelatedDrops)
}
