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
// The experiment ids are the entries of the experiments registry below; an
// unknown id prints them all, and DESIGN.md's per-experiment index maps each
// to the table, figure or claim it reproduces.
//
// Pass -csv <dir> to also export the Figure 2 data series as CSV. Pass
// -trace <file> with -experiment attribution to export the recorded spans
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Pass -telemetry <dir> to arm the virtual-time telemetry plane and write
// one NDJSON run manifest per run under <dir> (schema tradenet.run.v1; see
// DESIGN.md "Telemetry plane"). Experiments with sampler wiring (designs,
// wanredundancy) emit time-resolved metric series, registry dumps, and
// scheduler profiles; the fault experiments emit one manifest per seed and
// cell carrying its fault timeline and decision logs; every other experiment
// emits a meta + host-stats manifest (cmd/tradestat validates them).
// Everything in a manifest except the hoststats line is a pure function of
// the seed.
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

// show adapts an experiment that returns a report to the runner signature:
// it prints the report and returns the report's run manifests, if it has
// any (the fault experiments' do, one per seed and cell).
func show(run func(c runCfg) fmt.Stringer) func(runCfg) []*manifest.Artifact {
	return func(c runCfg) []*manifest.Artifact {
		r := run(c)
		fmt.Println(r)
		if m, ok := r.(interface{ Manifests() []*manifest.Artifact }); ok {
			return m.Manifests()
		}
		return nil
	}
}

var experiments = []experimentSpec{
	{"table1", show(func(c runCfg) fmt.Stringer { return core.RunTable1(c.frames, c.sc.Seed) })},
	{"fig2a", show(func(c runCfg) fmt.Stringer { return core.RunFig2a(c.sc.Seed) })},
	{"fig2b", show(func(c runCfg) fmt.Stringer { return core.RunFig2b(c.sc.Seed) })},
	{"fig2c", show(func(c runCfg) fmt.Stringer { return core.RunFig2c(c.sc.Seed) })},
	{"designs", func(c runCfg) []*manifest.Artifact {
		r := core.RunDesignComparisonSeeds(c.sc, c.bursts, core.Seeds(c.sc.Seed, c.reps))
		if c.reps == 1 {
			fmt.Println(r.Runs[0])
		} else {
			fmt.Println(r)
		}
		var arts []*manifest.Artifact
		for _, run := range r.Runs {
			arts = append(arts, run.Artifacts...)
		}
		return arts
	}},
	{"mroute", show(func(c runCfg) fmt.Stringer {
		if c.reps > 1 {
			return core.RunMrouteOverflowSeeds(40, 20, 60, core.Seeds(c.sc.Seed, c.reps))
		}
		return core.RunMrouteOverflow(40, 20, 60, c.sc.Seed)
	})},
	{"generations", show(func(c runCfg) fmt.Stringer { return core.RunGenerations() })},
	{"merge", show(func(c runCfg) fmt.Stringer { return core.RunMergeBottleneck([]int{1, 2, 4, 8}, 50, c.sc.Seed) })},
	{"overhead", show(func(c runCfg) fmt.Stringer { return core.RunHeaderOverhead(c.frames, c.sc.Seed) })},
	{"partitions", show(func(c runCfg) fmt.Stringer { return core.RunPartitionScaling(4) })},
	{"budget", show(func(c runCfg) fmt.Stringer { return core.RunPerEventBudget(2_000_000) })},
	{"wan", show(func(c runCfg) fmt.Stringer { return core.RunWAN(1000, c.sc.Seed) })},
	// §5 future-work ablations:
	{"filtermerge", show(func(c runCfg) fmt.Stringer { return core.RunFilteredMerge([]int{2, 4, 8}, 50, c.sc.Seed) })},
	{"placement", show(func(c runCfg) fmt.Stringer { return core.RunPlacement(4, 64, 4, 11, 10, c.sc.Seed) })},
	{"groupmap", show(func(c runCfg) fmt.Stringer { return core.RunGroupMapping(1024, 64, 50, c.sc.Seed) })},
	{"timestamps", show(func(c runCfg) fmt.Stringer { return core.RunTimestampPrecision(20_000, c.sc.Seed) })},
	{"filterplace", show(func(c runCfg) fmt.Stringer { return core.RunFilterPlacement() })},
	{"dualpath", show(func(c runCfg) fmt.Stringer { return core.RunDualPathWAN(5000, c.sc.Seed) })},
	{"correlated", show(func(c runCfg) fmt.Stringer { return core.RunCorrelatedMerge(4, 60, c.sc.Seed) })},
	{"colocation", show(func(c runCfg) fmt.Stringer { return core.RunColocation(2*sim.Microsecond, c.sc.Seed) })},
	{"metronbbo", show(func(c runCfg) fmt.Stringer { return core.RunMetroNBBO(500*sim.Millisecond, c.sc.Seed) })},
	{"genrt", show(func(c runCfg) fmt.Stringer { return core.RunGenerationRoundTrip(c.sc, c.bursts) })},
	{"corepin", show(func(c runCfg) fmt.Stringer { return core.RunCorePinning(100, c.sc.Seed) })},
	{"stalequotes", show(func(c runCfg) fmt.Stringer {
		lats := []sim.Duration{500 * sim.Nanosecond, 2 * sim.Microsecond, 5 * sim.Microsecond,
			10 * sim.Microsecond, 20 * sim.Microsecond, 50 * sim.Microsecond}
		return core.RunStaleQuotes(lats, 20, 15*sim.Microsecond, c.sc.Seed)
	})},
	{"failover", show(func(c runCfg) fmt.Stringer { return core.RunFailover(c.sc, core.Seeds(c.sc.Seed, c.reps)) })},
	{"oefailover", show(func(c runCfg) fmt.Stringer { return core.RunOEFailover(c.sc, core.Seeds(c.sc.Seed, c.reps)) })},
	{"wanredundancy", show(func(c runCfg) fmt.Stringer { return core.RunWANRedundancy(c.sc, core.Seeds(c.sc.Seed, c.reps)) })},
	{"exchangefailover", show(func(c runCfg) fmt.Stringer { return core.RunExchangeFailover(c.sc, core.Seeds(c.sc.Seed, c.reps)) })},
	{"attribution", func(c runCfg) []*manifest.Artifact {
		r := core.RunAttribution(c.sc, c.bursts)
		fmt.Println(r)
		if c.tracePath != "" {
			f, err := os.Create(c.tracePath)
			if err == nil {
				err = r.WriteChrome(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
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

	cfg := runCfg{sc: sc, frames: *frames, bursts: *bursts, reps: *reps, tracePath: *tracePath}

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
			arts = []*manifest.Artifact{{Meta: manifest.Meta{Schema: manifest.Schema, Experiment: e.id, Seed: *seed}}}
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
