package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tradenet/internal/metrics"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// Attribution sampling parameters: trace every other published datagram, cap
// total contexts (starts plus multicast forks) so the paper-scale plant
// cannot explode the recorder.
const (
	attributionEvery = 2
	attributionCap   = 4096
)

// DesignAttribution is one design's flight-recorder accounting: where each
// traced message's time went, how every trace terminated, and whether the
// span sums reconcile exactly with the tick-to-trade tap.
type DesignAttribution struct {
	Design string
	// Created counts trace contexts (starts + forks); Finished counts those
	// that reached a terminal.
	Created  int
	Finished int
	// ByEnd counts finished traces per terminal kind.
	ByEnd [trace.NumEnds]int
	// Accepted traces are the reconcilable ones: order admitted at the
	// matching engine.
	Accepted int
	// ByCause sums span time per cause across accepted traces; Total is the
	// sum of their end-to-end durations (ByCause sums to Total exactly, by
	// the telescoping-span invariant).
	ByCause [trace.NumCauses]sim.Duration
	Total   sim.Duration
	// Reconciled counts burst-originated accepted traces whose span-summed
	// duration matches a tick-to-trade tap sample exactly; MaxDelta is the
	// largest discrepancy observed (the acceptance bar is Reconciled ==
	// Accepted − Reflected and MaxDelta 0). Reflected counts accepted traces
	// that began at a match-time publish (the feed reflection of an earlier
	// order) — the tap measures those orders from the burst instant, so they
	// have no same-origin tap counterpart and are excluded.
	Reconciled int
	Reflected  int
	MaxDelta   sim.Duration
	// Traces holds the design's finished contexts for export.
	Traces []*trace.Ctx
	// RegistryDump is the design's unified metrics-registry dump.
	RegistryDump string
}

// AttributionResult is E20: "where do the microseconds go" — the flight
// recorder run through all three designs.
type AttributionResult struct {
	Designs []DesignAttribution
}

// RunAttribution traces sampled messages through Designs 1, 3, and 2 with
// the flight recorder enabled, reconciles every accepted trace against the
// design's tick-to-trade tap, and captures a unified registry dump per
// design (scheduler self-profile, fabric counters, per-cause latency
// histograms).
func RunAttribution(sc Scenario, bursts int) AttributionResult {
	var out AttributionResult
	build := StandardDesigns(sc)
	for _, n := range []int{1, 3, 2} {
		out.Designs = append(out.Designs, measureAttribution(build[n-1](), bursts))
	}
	return out
}

// measureAttribution arms one plant's exchange with a recorder, runs its
// round-trip measurement, and folds the finished traces into an attribution
// row plus a registry dump.
func measureAttribution(p *Plant, bursts int) DesignAttribution {
	sched, ex := p.Sched, p.Ex
	rec := trace.NewRecorder(attributionEvery, attributionCap)
	ex.EnableTracing(rec)

	rt := p.MeasureRoundTrip(bursts)

	var a DesignAttribution
	a.Design = rt.Design
	a.Created = rec.Created()
	a.Traces = rec.Done()
	a.Finished = len(a.Traces)

	reg := metrics.NewRegistry()
	registerScheduler(reg, sched)
	reg.RegisterUint("exch.published.datagrams", &ex.Published)
	reg.RegisterUint("exch.published.msgs", &ex.PublishedMsgs)
	if d1, ok := p.fab.(*Design1); ok { // the one fabric with a control plane keeps fabric-wide loss counters
		reg.RegisterInt("fabric.blackholed", func() int64 { return int64(d1.LS.FabricStats().Blackholed) })
		reg.RegisterInt("fabric.lost", func() int64 { return int64(d1.LS.FabricStats().Lost) })
		reg.RegisterInt("fabric.purged", func() int64 { return int64(d1.LS.FabricStats().Purged) })
		reg.RegisterInt("fabric.drops", func() int64 { return int64(d1.LS.FabricStats().Drops) })
	}
	e2e := reg.Histogram("latency.tick_to_trade")
	for _, s := range rt.Samples {
		e2e.Observe(int64(s))
	}
	causeHists := make([]*metrics.Histogram, trace.NumCauses)
	for c := 0; c < trace.NumCauses; c++ {
		causeHists[c] = reg.Histogram("trace.cause." + trace.Cause(c).String())
	}
	reg.RegisterInt("trace.created", func() int64 { return int64(a.Created) })
	reg.RegisterInt("trace.finished", func() int64 { return int64(a.Finished) })
	for e := 1; e < trace.NumEnds; e++ {
		if trace.End(e) == trace.EndDeduped || trace.End(e) == trace.EndReconstructed {
			// WAN-mirror terminals (E22): the attribution plants never trace
			// the mirror, so these stay zero — omit them from the dump.
			continue
		}
		e := e
		reg.RegisterInt("trace.end."+trace.End(e).String(), func() int64 { return int64(a.ByEnd[e]) })
	}

	// Reconcile each accepted trace's span sum against the tap's samples:
	// both measure publish-instant to accept-instant on the virtual clock, so
	// the match must be exact. Matching consumes samples (multiset match).
	taps := make([]int64, len(rt.Samples))
	for i, s := range rt.Samples {
		taps[i] = int64(s)
	}
	sort.Slice(taps, func(i, j int) bool { return taps[i] < taps[j] })
	burstAt := make(map[sim.Time]bool, len(rt.Bursts))
	for _, t := range rt.Bursts {
		burstAt[t] = true
	}
	for _, c := range a.Traces {
		a.ByEnd[c.Terminal()]++
		if c.Terminal() != trace.EndAccepted {
			continue
		}
		a.Accepted++
		d := c.Duration()
		a.Total += d
		by := c.ByCause()
		for cause, t := range by {
			a.ByCause[cause] += t
			causeHists[cause].Observe(int64(t))
		}
		if !burstAt[c.Start()] {
			// Started at a match-time publish: the reflection of an earlier
			// order on the feed. The tap has no sample with this origin.
			a.Reflected++
			continue
		}
		i := sort.Search(len(taps), func(i int) bool { return taps[i] >= int64(d) })
		if i < len(taps) && taps[i] == int64(d) {
			a.Reconciled++
			taps = append(taps[:i], taps[i+1:]...)
			continue
		}
		// No exact tap: record how far off the nearest one is.
		delta := sim.Duration(int64(1) << 62)
		if i < len(taps) {
			delta = sim.Duration(taps[i] - int64(d))
		}
		if i > 0 {
			if lo := sim.Duration(int64(d) - taps[i-1]); lo < delta {
				delta = lo
			}
		}
		if delta > a.MaxDelta {
			a.MaxDelta = delta
		}
	}

	a.RegistryDump = reg.String()
	return a
}

// registerScheduler exposes the scheduler's self-profile and current wheel
// occupancy under the sched.* registry namespace.
func registerScheduler(reg *metrics.Registry, sched *sim.Scheduler) {
	reg.RegisterInt("sched.fired.total", func() int64 { return int64(sched.Profile().Fired) })
	reg.RegisterInt("sched.fired.closure", func() int64 { return int64(sched.Profile().FiredClosure) })
	reg.RegisterInt("sched.fired.args2", func() int64 { return int64(sched.Profile().FiredArgs2) })
	reg.RegisterInt("sched.fired.args3", func() int64 { return int64(sched.Profile().FiredArgs3) })
	reg.RegisterInt("sched.placed.single", func() int64 { return int64(sched.Profile().PlacedSingle) })
	reg.RegisterInt("sched.placed.overflow", func() int64 { return int64(sched.Profile().PlacedOverflow) })
	reg.RegisterInt("sched.cascades", func() int64 { return int64(sched.Profile().Cascades) })
	for lvl := 0; lvl < sim.WheelLevels; lvl++ {
		lvl := lvl
		reg.RegisterInt(fmt.Sprintf("sched.placed.level%d", lvl),
			func() int64 { return int64(sched.Profile().PlacedLevel[lvl]) })
		reg.RegisterInt(fmt.Sprintf("sched.occupancy.level%d", lvl),
			func() int64 { return int64(sched.Occupancy()[lvl]) })
	}
}

// WriteChrome exports every design's finished traces as one Chrome
// trace-event JSON stream.
func (r AttributionResult) WriteChrome(w io.Writer) error {
	var all []*trace.Ctx
	for _, d := range r.Designs {
		all = append(all, d.Traces...)
	}
	return trace.WriteChrome(w, all)
}

// String renders the per-design attribution table: mean time per accepted
// message by cause, the cause shares, terminal accounting, and the exact-
// reconciliation verdict, followed by each design's registry dump.
func (r AttributionResult) String() string {
	var b strings.Builder
	b.WriteString("E20: where do the microseconds go (flight-recorder attribution)\n")
	var rows [][]string
	for _, d := range r.Designs {
		row := []string{d.Design, fmt.Sprint(d.Accepted)}
		if d.Accepted == 0 {
			row = append(row, "-", "-", "-", "-", "-", "-")
		} else {
			n := sim.Duration(d.Accepted)
			for c := 0; c < trace.NumCauses; c++ {
				row = append(row, (d.ByCause[c] / n).String())
			}
			row = append(row, (d.Total / n).String())
		}
		rows = append(rows, row)
	}
	b.WriteString(metrics.Table(
		[]string{"design", "accepted", "software", "queueing", "serialization", "propagation", "switching", "mean total"},
		rows))
	for _, d := range r.Designs {
		fmt.Fprintf(&b, "%s: %d traces (%d finished); ends:", d.Design, d.Created, d.Finished)
		for e := 1; e < trace.NumEnds; e++ {
			if d.ByEnd[e] > 0 {
				fmt.Fprintf(&b, " %s=%d", trace.End(e), d.ByEnd[e])
			}
		}
		fmt.Fprintf(&b, "; reconciled %d/%d with tap (%d reflections excluded, max delta %v)\n",
			d.Reconciled, d.Accepted-d.Reflected, d.Reflected, d.MaxDelta)
	}
	for _, d := range r.Designs {
		fmt.Fprintf(&b, "\n%s registry:\n%s", d.Design, d.RegistryDump)
	}
	return b.String()
}
