package core

import (
	"fmt"
	"slices"

	"tradenet/internal/fault"
	"tradenet/internal/manifest"
	"tradenet/internal/metrics"
	"tradenet/internal/redundancy"
	"tradenet/internal/sim"
)

// WAN redundancy experiment (E22): recovery policy × rain-fade timeline ×
// design. Each design's plant mirrors its exchange feed to a remote site
// over the Carteret→Secaucus microwave circuit through the redundancy layer
// (see wanfeed.go), rain falls on schedule, and the run measures what each
// recovery policy buys while the path is degraded:
//
//   - goodput: messages delivered in order off the live path (first copies,
//     deduped duplicates, parity reconstructions) as a share of everything
//     the exchange published — the timely fraction. Replay heals the rest,
//     but late: accounted adds it back.
//   - time-to-recovery: rain-window end → first probe at which the remote
//     picture is complete again (live + replayed ≥ published).
//   - pick-off exposure: total probed time with an incomplete remote
//     picture — the stale-quote window a §2 pick-off artist exploits.
//   - overhead: redundant wire bytes as a share of first-copy payload bytes
//     — what the policy costs on a bandwidth-starved microwave link.
//
// The matrix crosses the three static policies and the adaptive controller
// with two rain timelines on Design 1, then runs the adaptive controller
// under the squall on all three designs. Everything replicates across seeds
// via RunParallel; each run is a pure function of its seed.

// E22 schedule: bursts every wanrBurstGap from wanrBurstStart; probes every
// wanrProbeGap from the first rain onset; the run ends wanrDrain after the
// last burst so replay tails can finish.
const (
	wanrBursts     = 120
	wanrBurstGap   = 100 * sim.Microsecond
	wanrBurstStart = sim.Time(2 * sim.Millisecond)
	wanrProbeGap   = 50 * sim.Microsecond
	wanrDrain      = 2 * sim.Millisecond

	// wanrLagAllowance: traffic is continuous, so at any instant the last
	// few hundred microseconds of published data are legitimately in flight
	// (microwave propagation, serialization, reassembly). A probe therefore
	// compares accounted-now against published-as-of lagAllowance ago:
	// "complete" means nothing older than the allowance is still missing.
	// Only losses waiting on the replay round trip breach it; in-flight
	// first copies, immediate duplicates, and parity reconstructions don't.
	wanrLagAllowance = 300 * sim.Microsecond
)

// wanrEnd is the bounded run deadline (the adaptive controller's tick
// re-arms forever, so runs bound themselves by deadline, as E21 does).
func wanrEnd() sim.Time {
	return wanrBurstStart.Add(sim.Duration(wanrBursts)*wanrBurstGap + wanrDrain)
}

// rainTimeline is one scripted weather pattern for the microwave path.
type rainTimeline struct {
	name     string
	lossProb float64 // per-frame loss probability while raining
	windows  []fault.RainWindow
}

// wanrTimelines: a squall (two short, violent cells — loss far beyond what
// one parity frame per group can absorb, so the ladder should climb to
// Duplicate) and a drizzle (one long, light fade — single losses per group
// dominate, FEC territory).
func wanrTimelines() []rainTimeline {
	return []rainTimeline{
		{name: "squall", lossProb: 0.30, windows: []fault.RainWindow{
			{At: wanrBurstStart.Add(1 * sim.Millisecond), Dur: 1500 * sim.Microsecond},
			{At: wanrBurstStart.Add(6 * sim.Millisecond), Dur: 1500 * sim.Microsecond},
		}},
		{name: "drizzle", lossProb: 0.08, windows: []fault.RainWindow{
			{At: wanrBurstStart.Add(2 * sim.Millisecond), Dur: 5 * sim.Millisecond},
		}},
	}
}

// wanrMode is one arm of the policy dimension.
type wanrMode struct {
	name     string
	adaptive bool
	policy   redundancy.Policy // pinned policy when !adaptive
}

func wanrModes() []wanrMode {
	return []wanrMode{
		{name: "replay-only", policy: redundancy.ReplayOnly},
		{name: "parity-fec", policy: redundancy.ParityFEC},
		{name: "duplicate", policy: redundancy.Duplicate},
		{name: "adaptive", adaptive: true},
	}
}

// WANRedundancyRun is one (design, timeline, mode) cell.
type WANRedundancyRun struct {
	Design   string
	Timeline string
	Mode     string

	Published uint64 // messages the exchange published over the run
	LiveMsgs  uint64 // delivered in order off the live path (incl. FEC)
	Recovered uint64 // replayed over the side channel, late

	// RecoveredInRun / TTR: worst rain window's end → first complete probe.
	RecoveredInRun bool
	TTR            sim.Duration
	// Exposure sums probed time with an incomplete remote picture.
	Exposure sim.Duration

	DataBytes     uint64
	OverheadBytes uint64

	CircuitLost   uint64 // frames the microwave path dropped
	Reconstructed uint64 // losses healed by parity, no replay RTT
	DupDiscarded  uint64 // redundant copies deduped by sequence
	LostDeclared  uint64 // residual losses handed to replay
	Requests      uint64 // replay requests sent
	Served        uint64 // datagrams the replay service returned
	Switches      uint64 // controller policy switches (adaptive only)

	DecisionLog string
	FaultLog    string
	Registry    string // wan.* metrics dump

	// Artifact is the cell's run manifest (nil unless the scenario arms
	// Telemetry): wan.* + scheduler series time-resolved across the rain
	// windows. The report's Manifests attaches the fault timeline and
	// controller decisions as log records.
	Artifact *manifest.Artifact
}

// GoodputPct is the timely fraction: in-order live delivery over published.
func (r WANRedundancyRun) GoodputPct() float64 {
	if r.Published == 0 {
		return 0
	}
	return 100 * float64(r.LiveMsgs) / float64(r.Published)
}

// OverheadPct is redundant wire bytes over first-copy payload bytes.
func (r WANRedundancyRun) OverheadPct() float64 {
	if r.DataBytes == 0 {
		return 0
	}
	return 100 * float64(r.OverheadBytes) / float64(r.DataBytes)
}

// runWANRedundancy drives one plant through one timeline under one mode.
func runWANRedundancy(p *Plant, tl rainTimeline, mode wanrMode) WANRedundancyRun {
	res := WANRedundancyRun{Design: p.Name, Timeline: tl.name, Mode: mode.name}
	sched, wf := p.Sched, p.WANFeed
	if p.Tel != nil {
		wf.RegisterMetrics(p.Tel.Reg)
		p.Tel.Arm(0, wanrEnd())
	}
	wf.MW.Config.RainLossProb = tl.lossProb
	if mode.adaptive {
		wf.Start()
	} else {
		wf.ForceStatic(mode.policy)
	}

	plan := fault.NewPlan(sched)
	plan.RainTimeline(wf.MW, tl.windows...)

	p.publishBursts(wanrBursts, p.Scenario.BurstMessages/12, wanrBurstStart, wanrBurstGap, nil)

	// Completeness probes: every wanrProbeGap, is the remote picture whole
	// (live + replayed ≥ what had been published wanrLagAllowance ago — the
	// E19 >= compare, lag-tolerant per the allowance above)? Exposure
	// accumulates incomplete intervals from the first rain onset; each rain
	// window's TTR is its end → the first complete probe at or after it.
	// Probes share one priority and strictly increasing times, so they run
	// in order and the published-count history indexes cleanly.
	end := wanrEnd()
	winEnd := make([]sim.Time, len(tl.windows))
	winDone := make([]bool, len(tl.windows))
	for i, w := range tl.windows {
		winEnd[i] = w.At.Add(w.Dur)
	}
	lagProbes := int(wanrLagAllowance / wanrProbeGap)
	var pubHist []uint64
	for at := wanrBurstStart; at <= end; at = at.Add(wanrProbeGap) {
		sched.AtPrio(at, sim.PrioReport, func() {
			i := len(pubHist)
			pubHist = append(pubHist, p.Ex.PublishedMsgs)
			j := i - lagProbes
			if j < 0 {
				j = 0
			}
			complete := wf.PendingReplays == 0 && wf.AccountedMsgs() >= pubHist[j]
			now := sched.Now()
			if now < tl.windows[0].At {
				return
			}
			if !complete {
				res.Exposure += wanrProbeGap
				return
			}
			for k := range winEnd {
				if !winDone[k] && now >= winEnd[k] {
					winDone[k] = true
					if d := now.Sub(winEnd[k]); d > res.TTR {
						res.TTR = d
					}
				}
			}
		})
	}
	sched.RunUntil(end)

	res.RecoveredInRun = true
	for _, done := range winDone {
		if !done {
			res.RecoveredInRun = false
		}
	}
	res.Published = p.Ex.PublishedMsgs
	res.LiveMsgs = wf.FeedMsgs
	res.Recovered = wf.RecoveredMsgs()
	res.DataBytes = wf.Sender.Stats.DataBytes
	res.OverheadBytes = wf.Sender.Stats.OverheadBytes
	res.CircuitLost = wf.MW.PortA.Lost
	res.Reconstructed = wf.Receiver.Stats.Reconstructed
	res.DupDiscarded = wf.Receiver.Stats.Duplicates
	res.LostDeclared = wf.Receiver.Stats.LostDeclared
	res.Requests = wf.Requests
	res.Served = wf.ReplayServed()
	res.Switches = wf.Controller.Switches
	res.DecisionLog = wf.Controller.LogString()
	res.FaultLog = plan.LogString()

	reg := metrics.NewRegistry()
	wf.RegisterMetrics(reg)
	res.Registry = reg.String()

	if p.Tel != nil {
		res.Artifact = p.Tel.Artifact("wanredundancy", p.Name, tl.name+" "+mode.name, p.Scenario, sched)
	}
	return res
}

// WANRedundancyResult is one seed's runs: the policy × timeline matrix on
// Design 1, then the adaptive controller under the squall on all designs.
type WANRedundancyResult struct {
	Seed    int64
	Matrix  []WANRedundancyRun
	Designs []WANRedundancyRun
}

// WANRedundancyReport is E22 replicated across seeds.
type WANRedundancyReport = faultReport[WANRedundancyResult]

// RunWANRedundancy runs E22 for every seed in parallel, results in seed
// order. Each run is a pure function of its seed.
func RunWANRedundancy(sc Scenario, seeds []int64) WANRedundancyReport {
	return wanRedundancy.replicate(sc, seeds)
}

// wanrColumns are the per-cell columns both E22 tables share.
var wanrColumns = []column[WANRedundancyRun]{
	{"goodput", func(r WANRedundancyRun) any { return fmt.Sprintf("%.1f%%", r.GoodputPct()) }},
	{"TTR", func(r WANRedundancyRun) any { return ttr(r.RecoveredInRun, r.TTR) }},
	{"exposure", func(r WANRedundancyRun) any { return r.Exposure }},
	{"overhead", func(r WANRedundancyRun) any { return fmt.Sprintf("%.1f%%", r.OverheadPct()) }},
	{"lost", func(r WANRedundancyRun) any { return r.CircuitLost }},
	{"reconstr", func(r WANRedundancyRun) any { return r.Reconstructed }},
	{"deduped", func(r WANRedundancyRun) any { return r.DupDiscarded }},
	{"declared", func(r WANRedundancyRun) any { return r.LostDeclared }},
	{"req/served", func(r WANRedundancyRun) any { return fmt.Sprintf("%d/%d", r.Requests, r.Served) }},
	{"switches", func(r WANRedundancyRun) any { return r.Switches }},
}

// wanRedundancy is E22: the policy × timeline matrix and the design sweep
// as two tables, then the first seed's controller decisions, rain timeline
// and wan.* registry.
var wanRedundancy = &faultExperiment[WANRedundancyResult]{
	id:    "wanredundancy",
	title: "Adaptive WAN redundancy (E22): recovery policy × rain timeline × design",
	intro: "Exchange feed mirrored Carteret→Secaucus over microwave; rain on schedule;\n" +
		"fiber side-channel replay backstops whatever the active policy cannot absorb.\n" +
		"goodput = in-order live delivery (incl. parity reconstructions) / published;\n" +
		"TTR = worst rain-window end → complete remote picture; exposure = probed time\n" +
		"with an incomplete picture (the stale-quote window).\n\n",
	run: func(sc Scenario) WANRedundancyResult {
		sc.WANRedundancy = true
		build := StandardDesigns(sc)
		res := WANRedundancyResult{Seed: sc.Seed}
		for _, tl := range wanrTimelines() {
			for _, mode := range wanrModes() {
				res.Matrix = append(res.Matrix, runWANRedundancy(build[0](), tl, mode))
			}
		}
		// Design sweep: adaptive under the squall. Design 1's cell is the
		// matrix run — same plant, same schedule — so reuse it.
		squall := wanrTimelines()[0]
		adaptive := wanrModes()[3]
		res.Designs = append(res.Designs, res.Matrix[3],
			runWANRedundancy(build[1](), squall, adaptive),
			runWANRedundancy(build[2](), squall, adaptive))
		return res
	},
	tables: []func([]int64, []WANRedundancyResult) string{
		table("Policy × timeline (Design 1):\n", func(r WANRedundancyResult) []WANRedundancyRun { return r.Matrix },
			append([]column[WANRedundancyRun]{
				{"timeline", func(r WANRedundancyRun) any { return r.Timeline }},
				{"policy", func(r WANRedundancyRun) any { return r.Mode }},
			}, wanrColumns...)),
		table("\nAdaptive controller under the squall, all designs:\n", func(r WANRedundancyResult) []WANRedundancyRun { return r.Designs },
			append([]column[WANRedundancyRun]{{"design", func(r WANRedundancyRun) any { return r.Design }}}, wanrColumns...)),
	},
	appendix: func(seed int64, first WANRedundancyResult) string {
		squall, drizzle := first.Matrix[3], first.Matrix[7]
		return fmt.Sprintf("\nController decisions (seed %d, Design 1, squall):\n%s", seed, squall.DecisionLog) +
			fmt.Sprintf("Controller decisions (seed %d, Design 1, drizzle):\n%s", seed, drizzle.DecisionLog) +
			fmt.Sprintf("Rain timeline (seed %d, squall):\n%s", seed, squall.FaultLog) +
			fmt.Sprintf("\nwan.* metrics (seed %d, Design 1, squall, adaptive):\n%s", seed, squall.Registry)
	},
	// Designs[0] is the Matrix[3] run (same plant, same manifest): only the
	// fresh design-sweep cells add manifests.
	manifests: func(r WANRedundancyResult) []faultCell {
		var cells []faultCell
		for _, m := range slices.Concat(r.Matrix, r.Designs[1:]) {
			cells = append(cells, faultCell{design: m.Design, cell: m.Timeline + " " + m.Mode, art: m.Artifact,
				faults: logs("rain", m.FaultLog), decisions: logs("controller", m.DecisionLog)})
		}
		return cells
	},
}
