// Command tradenet runs the paper-reproduction experiments and prints the
// corresponding tables and figure statistics.
//
// Usage:
//
//	tradenet -experiment all
//	tradenet -experiment table1 -frames 500000
//	tradenet -experiment designs -scale paper
//	tradenet -experiment attribution -trace trace.json
//	tradenet -experiment all -telemetry out/telemetry
//	tradenet -experiment designs -scale paper -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments (see DESIGN.md's per-experiment index):
//
//	table1      E1  — frame lengths per feed (Table 1)
//	fig2a       E2  — daily event growth (Figure 2a)
//	fig2b       E3  — single stock intraday, 1s windows (Figure 2b)
//	fig2c       E4  — busiest second, 100µs windows (Figure 2c)
//	designs     E5+E6+E12 — round trips through Designs 1, 3, 2
//	mroute      E7  — multicast table overflow cliff
//	generations E8  — switch latency/multicast trends
//	merge       E9  — L1S merge bottleneck sweep
//	overhead    E10 — header overhead + compact-transport ablation
//	partitions  E11 — partition growth vs mroute capacity
//	budget      E13 — per-event budgets vs measured codec cost
//	wan         E14 — microwave vs fiber inter-colo circuits
//	dualpath    E15 — A/B arbitration over microwave + fiber with rain
//	colocation  E16 — co-located vs remote firm tick-to-trade race
//	metronbbo   E17 — cross-colo NBBO skew at a surveillance host
//	filtermerge A1  — FPGA-filtered L1S merging (§5 Hardware)
//	placement   A2  — rack placement optimization (§5 Cluster Management)
//	groupmap    A3  — partition→group mapping co-design (§5 Routing)
//	timestamps  A4  — clock-sync precision vs event ordering (§2)
//	filterplace A5  — in-process vs middlebox filtering crossover (§3)
//	correlated  A6  — correlated cross-feed bursts at a merge (§2)
//	corepin     A7  — core isolation vs shared cores (Fig. 1d)
//	genrt       E8b — Design 1 round trip across switch generations
//	stalequotes E18 — the cost of latency: repricing races an aggressor
//	failover    E19 — deterministic fault injection: spine kill + WAN outage
//	attribution E20 — flight-recorder latency attribution across designs
//	oefailover  E21 — order-entry session kill: liveness, cancel-on-disconnect, replay
//	wanredundancy E22 — adaptive WAN redundancy: recovery policy × rain fade × design
//	exchangefailover E23 — primary venue crash: journal replication, promotion, zero-loss failover
//
// Pass -csv <dir> to also export the Figure 2 data series as CSV. Pass
// -trace <file> with -experiment attribution to export the recorded spans
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Pass -telemetry <dir> to arm the virtual-time telemetry plane and write
// one NDJSON run manifest per run under <dir> (schema tradenet.run.v1; see
// DESIGN.md "Telemetry plane"). Experiments with sampler wiring (designs,
// wanredundancy) emit time-resolved metric series, registry dumps, and
// scheduler profiles; every other experiment emits a meta + host-stats
// manifest (cmd/tradestat validates them). Everything in a manifest except
// the hoststats line is a pure function of the seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tradenet/internal/core"
	"tradenet/internal/manifest"
	"tradenet/internal/sim"
)

// runCfg carries the parsed flags to experiment runners.
type runCfg struct {
	sc        core.Scenario
	seed      int64
	frames    int
	bursts    int
	reps      int
	tracePath string
}

// experimentSpec is one runnable experiment: its id (the -experiment value)
// and runner. The single ordered experiments slice below drives -experiment
// all, the usage listing, and lookup — one registry, no parallel lists to
// drift apart. Runners print their report and return any rich run
// manifests; nil means the driver synthesizes a meta-only manifest when
// telemetry is requested.
type experimentSpec struct {
	id  string
	run func(cfg runCfg) []*manifest.Artifact
}

// show adapts a print-only experiment to the runner signature.
func show(run func(c runCfg) fmt.Stringer) func(runCfg) []*manifest.Artifact {
	return func(c runCfg) []*manifest.Artifact {
		fmt.Println(run(c))
		return nil
	}
}

// metaArtifact builds a meta-only manifest for experiments without sampler
// wiring, optionally carrying deterministic text logs.
func metaArtifact(experiment, design, cell string, seed int64, faults, decisions []manifest.LogRecord) *manifest.Artifact {
	return &manifest.Artifact{
		Meta: manifest.Meta{
			Schema:     manifest.Schema,
			Experiment: experiment,
			Design:     design,
			Cell:       cell,
			Seed:       seed,
		},
		Faults:    faults,
		Decisions: decisions,
	}
}

var experiments = []experimentSpec{
	{"table1", show(func(c runCfg) fmt.Stringer { return core.RunTable1(c.frames, c.seed) })},
	{"fig2a", show(func(c runCfg) fmt.Stringer { return core.RunFig2a(c.seed) })},
	{"fig2b", show(func(c runCfg) fmt.Stringer { return core.RunFig2b(c.seed) })},
	{"fig2c", show(func(c runCfg) fmt.Stringer { return core.RunFig2c(c.seed) })},
	{"designs", func(c runCfg) []*manifest.Artifact {
		if c.reps > 1 {
			r := core.RunDesignComparisonSeeds(c.sc, c.bursts, core.Seeds(c.seed, c.reps))
			fmt.Println(r)
			var arts []*manifest.Artifact
			for _, run := range r.Runs {
				arts = append(arts, run.Artifacts...)
			}
			return arts
		}
		r := core.RunDesignComparison(c.sc, c.bursts)
		fmt.Println(r)
		return r.Artifacts
	}},
	{"mroute", func(c runCfg) []*manifest.Artifact {
		if c.reps > 1 {
			fmt.Println(core.RunMrouteOverflowSeeds(40, 20, 60, core.Seeds(c.seed, c.reps)))
			return nil
		}
		fmt.Println(core.RunMrouteOverflow(40, 20, 60, c.seed))
		return nil
	}},
	{"generations", show(func(c runCfg) fmt.Stringer { return core.RunGenerations() })},
	{"merge", show(func(c runCfg) fmt.Stringer { return core.RunMergeBottleneck([]int{1, 2, 4, 8}, 50, c.seed) })},
	{"overhead", show(func(c runCfg) fmt.Stringer { return core.RunHeaderOverhead(c.frames, c.seed) })},
	{"partitions", show(func(c runCfg) fmt.Stringer { return core.RunPartitionScaling(4) })},
	{"budget", show(func(c runCfg) fmt.Stringer { return core.RunPerEventBudget(2_000_000) })},
	{"wan", show(func(c runCfg) fmt.Stringer { return core.RunWAN(1000, c.seed) })},
	// §5 future-work ablations:
	{"filtermerge", show(func(c runCfg) fmt.Stringer { return core.RunFilteredMerge([]int{2, 4, 8}, 50, c.seed) })},
	{"placement", show(func(c runCfg) fmt.Stringer { return core.RunPlacement(4, 64, 4, 11, 10, c.seed) })},
	{"groupmap", show(func(c runCfg) fmt.Stringer { return core.RunGroupMapping(1024, 64, 50, c.seed) })},
	{"timestamps", show(func(c runCfg) fmt.Stringer { return core.RunTimestampPrecision(20_000, c.seed) })},
	{"filterplace", show(func(c runCfg) fmt.Stringer { return core.RunFilterPlacement() })},
	{"dualpath", show(func(c runCfg) fmt.Stringer { return core.RunDualPathWAN(5000, c.seed) })},
	{"correlated", show(func(c runCfg) fmt.Stringer { return core.RunCorrelatedMerge(4, 60, c.seed) })},
	{"colocation", show(func(c runCfg) fmt.Stringer { return core.RunColocation(2*sim.Microsecond, c.seed) })},
	{"metronbbo", show(func(c runCfg) fmt.Stringer { return core.RunMetroNBBO(500*sim.Millisecond, c.seed) })},
	{"genrt", show(func(c runCfg) fmt.Stringer { return core.RunGenerationRoundTrip(c.sc, c.bursts) })},
	{"corepin", show(func(c runCfg) fmt.Stringer { return core.RunCorePinning(100, c.seed) })},
	{"stalequotes", show(func(c runCfg) fmt.Stringer {
		lats := []sim.Duration{500 * sim.Nanosecond, 2 * sim.Microsecond, 5 * sim.Microsecond,
			10 * sim.Microsecond, 20 * sim.Microsecond, 50 * sim.Microsecond}
		return core.RunStaleQuotes(lats, 20, 15*sim.Microsecond, c.seed)
	})},
	{"failover", func(c runCfg) []*manifest.Artifact {
		r := core.RunFailover(c.sc, core.Seeds(c.seed, c.reps))
		fmt.Println(r)
		var arts []*manifest.Artifact
		for _, run := range r.Runs {
			arts = append(arts,
				metaArtifact("failover", "", "spine", run.Seed,
					[]manifest.LogRecord{{Name: "faults", Log: run.Spine.FaultLog}}, nil),
				metaArtifact("failover", "", "wan-outage", run.Seed,
					[]manifest.LogRecord{{Name: "faults", Log: run.WAN.FaultLog}}, nil))
		}
		return arts
	}},
	{"oefailover", func(c runCfg) []*manifest.Artifact {
		r := core.RunOEFailover(c.sc, core.Seeds(c.seed, c.reps))
		fmt.Println(r)
		var arts []*manifest.Artifact
		for _, run := range r.Runs {
			for _, d := range run.Designs {
				arts = append(arts, metaArtifact("oefailover", d.Design, "", run.Seed,
					[]manifest.LogRecord{{Name: "faults", Log: d.FaultLog}}, nil))
			}
		}
		return arts
	}},
	{"wanredundancy", func(c runCfg) []*manifest.Artifact {
		r := core.RunWANRedundancy(c.sc, core.Seeds(c.seed, c.reps))
		fmt.Println(r)
		var arts []*manifest.Artifact
		for _, run := range r.Runs {
			for _, m := range run.Matrix {
				if m.Artifact != nil {
					arts = append(arts, m.Artifact)
				}
			}
			// Designs[0] reuses the Matrix[3] run (same plant, same
			// artifact) — only the fresh design-sweep cells add manifests.
			for _, m := range run.Designs[1:] {
				if m.Artifact != nil {
					arts = append(arts, m.Artifact)
				}
			}
		}
		return arts
	}},
	{"exchangefailover", func(c runCfg) []*manifest.Artifact {
		r := core.RunExchangeFailover(c.sc, core.Seeds(c.seed, c.reps))
		fmt.Println(r)
		var arts []*manifest.Artifact
		for _, run := range r.Runs {
			for _, d := range run.Designs {
				arts = append(arts, metaArtifact("exchangefailover", d.Design, "", run.Seed,
					[]manifest.LogRecord{{Name: "faults", Log: d.FaultLog}},
					[]manifest.LogRecord{{Name: "promotion", Log: d.DecisionLog}}))
			}
		}
		return arts
	}},
	{"attribution", func(c runCfg) []*manifest.Artifact {
		r := core.RunAttribution(c.sc, c.bursts)
		fmt.Println(r)
		if c.tracePath != "" {
			f, err := os.Create(c.tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
				os.Exit(1)
			}
			if err := r.WriteChrome(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", c.tracePath)
		}
		return nil
	}},
}

// lookupExperiment finds a spec by id.
func lookupExperiment(id string) (experimentSpec, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e, true
		}
	}
	return experimentSpec{}, false
}

// writeUsage lists every registered experiment id, in registry order.
func writeUsage(w io.Writer, unknown string) {
	fmt.Fprintf(w, "unknown experiment %q; known:", unknown)
	for _, e := range experiments {
		fmt.Fprintf(w, " %s", e.id)
	}
	fmt.Fprintln(w)
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all'")
		scale      = flag.String("scale", "small", "plant scale: small | paper")
		seed       = flag.Int64("seed", 1, "random seed")
		frames     = flag.Int("frames", 200_000, "frames for table1/overhead")
		bursts     = flag.Int("bursts", 4, "measurement bursts for design round trips")
		reps       = flag.Int("replications", 1, "independent seeds (seed, seed+1, ...), fanned across CPUs: designs and mroute merge them, failover, oefailover, wanredundancy and exchangefailover print a row per seed; other experiments ignore it")
		csvDir     = flag.String("csv", "", "also write Figure 2 data series as CSV into this directory")
		tracePath  = flag.String("trace", "", "write the attribution experiment's Chrome trace JSON to this file")
		telDir     = flag.String("telemetry", "", "arm the telemetry plane and write NDJSON run manifests into this directory")
		sampleUs   = flag.Int64("sample-interval-us", 500, "telemetry sampling interval in virtual microseconds")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the selected experiment(s) to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile, taken after the selected experiment(s), to this file")
	)
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "-replications %d: want at least 1\n", *reps)
		os.Exit(2)
	}

	sc := core.SmallScenario()
	if *scale == "paper" {
		sc = core.PaperScenario()
	}
	sc.Seed = *seed
	if *telDir != "" {
		sc.Telemetry = &core.TelemetrySpec{Interval: sim.Duration(*sampleUs) * sim.Microsecond}
	}

	if *csvDir != "" {
		files, err := core.WriteFigureCSVs(*csvDir, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Printf("wrote %s\n", f)
		}
	}

	cfg := runCfg{sc: sc, seed: *seed, frames: *frames, bursts: *bursts,
		reps: *reps, tracePath: *tracePath}

	// runOne executes the experiment; with -telemetry it brackets the run
	// with a wall-clock/MemStats host collector and collects manifests (a
	// synthesized meta-only one when the runner emits none), so every
	// experiment leaves a trace for the perf observatory.
	var manifests []*manifest.Artifact
	runOne := func(e experimentSpec) {
		if *telDir == "" {
			e.run(cfg)
			return
		}
		hc := manifest.BeginHostStats()
		arts := e.run(cfg)
		host := hc.End()
		if len(arts) == 0 {
			arts = []*manifest.Artifact{metaArtifact(e.id, "", "", *seed, nil, nil)}
		}
		for _, a := range arts {
			a.Host = host
		}
		manifests = append(manifests, arts...)
	}

	selected := experiments
	if *experiment != "all" {
		e, ok := lookupExperiment(*experiment)
		if !ok {
			writeUsage(os.Stderr, *experiment)
			os.Exit(2)
		}
		selected = []experimentSpec{e}
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, e := range selected {
		if *experiment == "all" {
			fmt.Printf("=== %s ===\n", e.id)
		}
		runOne(e)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *telDir != "" {
		paths, err := manifest.WriteDir(*telDir, manifests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d run manifests to %s\n", len(paths), *telDir)
	}
}
