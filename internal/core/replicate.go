package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tradenet/internal/manifest"
	"tradenet/internal/metrics"
	"tradenet/internal/sim"
)

// RunParallel fans n independent replications across GOMAXPROCS workers and
// returns their results in seed order. Each replication builds its own
// scheduler and plant, so every simulation remains single-goroutine and
// bit-for-bit deterministic for its seed: RunParallel(seeds, run) returns
// exactly what calling run(seeds[i]) sequentially would, regardless of how
// the replications interleave on the worker pool.
//
// run must not share mutable state across calls. Everything under
// internal/sim, internal/netsim, and internal/metrics is safe: schedulers
// own their event pools, histograms are per-run, the frame pools are
// sync.Pools, and a frame's reference count never leaves its simulation.
//
//simlint:allow goroutine: the sanctioned harness — each worker runs whole, single-goroutine replications and writes only its own disjoint results slot; output is independent of worker count
func RunParallel[T any](seeds []int64, run func(seed int64) T) []T {
	results := make([]T, len(seeds))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(seeds) {
		workers = len(seeds)
	}
	if workers <= 1 {
		for i, s := range seeds {
			results[i] = run(s)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seeds) {
					return
				}
				results[i] = run(seeds[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// Seeds returns n consecutive seeds starting at base — the conventional way
// to name a replication set ("seeds 1..10") so any single replication can be
// re-run in isolation with -seed.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// replicated is an experiment's runs over a seed list, in seed order.
type replicated[S any] struct {
	Seeds []int64
	Runs  []S
}

// replicate runs one seed's experiment for every seed on RunParallel, each
// on a copy of sc carrying that seed.
func replicate[S any](sc Scenario, seeds []int64, run func(sc Scenario) S) replicated[S] {
	return replicated[S]{Seeds: seeds, Runs: RunParallel(seeds, func(seed int64) S {
		s := sc
		s.Seed = seed
		return run(s)
	})}
}

// faultExperiment is a fault-injection experiment as data: the cells one
// seed runs, their tables, the first seed's appendix of registry dumps and
// logs, and each cell's run manifest. S is one seed's run.
type faultExperiment[S any] struct {
	id, title, intro string              // -experiment id (names the manifests), first line, prose
	run              func(sc Scenario) S // one seed's cells on sc (sc.Seed set)
	tables           []func(seeds []int64, runs []S) string
	appendix         func(seed int64, first S) string
	manifests        func(S) []faultCell // what each cell's run manifest carries
}

// column is one table column: its header and a cell's value in it, printed
// with fmt.Sprint.
type column[C any] struct {
	header string
	cell   func(C) any
}

// table renders the cells of type C that cells picks out of each seed's run
// under caption, one row per seed × cell, seed first.
func table[S, C any](caption string, cells func(S) []C, cols []column[C]) func([]int64, []S) string {
	headers := []string{"seed"}
	for _, col := range cols {
		headers = append(headers, col.header)
	}
	return func(seeds []int64, runs []S) string {
		var rows [][]string
		for i, run := range runs {
			for _, c := range cells(run) {
				row := []string{fmt.Sprint(seeds[i])}
				for _, col := range cols {
					row = append(row, fmt.Sprint(col.cell(c)))
				}
				rows = append(rows, row)
			}
		}
		return caption + metrics.Table(headers, rows)
	}
}

// verdict is the cell func of an "invariants" column: "ok", or "VIOLATED"
// for a cell that broke the experiment's contract.
func verdict[C interface{ InvariantsOK() bool }](c C) any {
	if c.InvariantsOK() {
		return "ok"
	}
	return "VIOLATED"
}

// faultCell is what one cell's run manifest carries beyond its seed: art is
// the cell's telemetry manifest when its run was armed, nil for meta-only.
type faultCell struct {
	design, cell      string
	art               *manifest.Artifact
	faults, decisions []manifest.LogRecord
}

// logs wraps one named text log as a manifest log record list.
func logs(name, log string) []manifest.LogRecord { return []manifest.LogRecord{{Name: name, Log: log}} }

// faultReport is a fault experiment replicated across seeds. Rendering and
// manifests are computed on demand, outside the runs.
type faultReport[S any] struct {
	replicated[S]
	exp *faultExperiment[S]
}

// replicate runs the experiment for every seed, seeds in parallel.
func (e *faultExperiment[S]) replicate(sc Scenario, seeds []int64) faultReport[S] {
	return faultReport[S]{replicate(sc, seeds, e.run), e}
}

// AllInvariantsOK reports whether every seed's run upheld the experiment's
// contract: vacuously true unless S judges itself with InvariantsOK.
func (r faultReport[S]) AllInvariantsOK() bool {
	for _, run := range r.Runs {
		if v, ok := any(run).(interface{ InvariantsOK() bool }); ok && !v.InvariantsOK() {
			return false
		}
	}
	return true
}

// String renders the report: title and seed count, intro, the tables, then
// the first seed's appendix.
func (r faultReport[S]) String() string {
	out := fmt.Sprintf("%s, %d seed(s)\n\n%s", r.exp.title, len(r.Seeds), r.exp.intro)
	for _, t := range r.exp.tables {
		out += t(r.Seeds, r.Runs)
	}
	if len(r.Runs) > 0 {
		out += r.exp.appendix(r.Seeds[0], r.Runs[0])
	}
	return out
}

// Manifests returns every cell's run manifest, seed by seed, carrying the
// cell's fault timeline and decision logs.
func (r faultReport[S]) Manifests() []*manifest.Artifact {
	var out []*manifest.Artifact
	for i, run := range r.Runs {
		for _, c := range r.exp.manifests(run) {
			a := c.art
			if a == nil {
				a = &manifest.Artifact{Meta: manifest.Meta{Schema: manifest.Schema,
					Experiment: r.exp.id, Design: c.design, Cell: c.cell, Seed: r.Seeds[i]}}
			}
			a.Faults, a.Decisions = c.faults, c.decisions
			out = append(out, a)
		}
	}
	return out
}

// seedDesigns is one seed's run of a fault experiment on each standard
// design, in design order.
type seedDesigns[R interface{ InvariantsOK() bool }] struct {
	Seed    int64
	Designs []R
}

// standardDesigns runs one design's experiment on each of the standard
// designs. run gets the design's constructor rather than a plant so that it
// can build a second, identical one (E23's control).
func standardDesigns[R interface{ InvariantsOK() bool }](sc Scenario, run func(build func() *Plant) R) seedDesigns[R] {
	res := seedDesigns[R]{Seed: sc.Seed}
	for _, build := range StandardDesigns(sc) {
		res.Designs = append(res.Designs, run(build))
	}
	return res
}

// cells returns the seed's design runs, one table row each.
func (s seedDesigns[R]) cells() []R { return s.Designs }

// InvariantsOK reports whether every design run upheld the contract.
func (s seedDesigns[R]) InvariantsOK() bool {
	for _, d := range s.Designs {
		if !d.InvariantsOK() {
			return false
		}
	}
	return true
}

// designLogs renders one log per design under heading, indented by design.
func designLogs[R any](heading string, seed int64, runs []R, log func(R) (design, text string)) string {
	out := fmt.Sprintf("\n%s (seed %d):\n", heading, seed)
	for _, r := range runs {
		design, text := log(r)
		out += "  " + design + ":\n"
		for _, line := range strings.SplitAfter(text, "\n") {
			if line != "" {
				out += "  " + strings.TrimSuffix(line, "\n") + "\n"
			}
		}
	}
	return out
}

// ReplicatedDesignRow is one design's statistics merged across replications.
type ReplicatedDesignRow struct {
	Design       string
	SwitchHops   int
	SoftwareHops int
	Mean         sim.Duration
	P50          sim.Duration
	P99          sim.Duration
	Spread       sim.Duration // max seed mean − min seed mean
	Orders       int
}

// ReplicatedComparison is the design comparison replicated over several
// seeds: the per-seed runs (in seed order) plus per-design merged rows.
type ReplicatedComparison struct {
	replicated[DesignComparison]
	Rows []ReplicatedDesignRow
}

// RunDesignComparisonSeeds replicates RunDesignComparison across seeds in
// parallel and merges each design's round-trip samples into one
// distribution. Per-seed results stay available in Runs for variance
// inspection; each equals a sequential RunDesignComparison with that seed.
func RunDesignComparisonSeeds(sc Scenario, bursts int, seeds []int64) ReplicatedComparison {
	out := ReplicatedComparison{replicated: replicate(sc, seeds, func(s Scenario) DesignComparison {
		return RunDesignComparison(s, bursts)
	})}
	if len(out.Runs) == 0 {
		return out
	}
	for d, first := range out.Runs[0].Rows {
		h := metrics.NewHistogram()
		row := ReplicatedDesignRow{Design: first.Design, SwitchHops: first.SwitchHops, SoftwareHops: first.SoftwareHops}
		minMean, maxMean := first.Mean(), first.Mean()
		for _, run := range out.Runs {
			rt := run.Rows[d]
			for _, s := range rt.Samples {
				h.Observe(int64(s))
			}
			row.Orders += rt.Orders
			minMean, maxMean = min(minMean, rt.Mean()), max(maxMean, rt.Mean())
		}
		row.Mean, row.P50, row.P99 = sim.Duration(h.Mean()), sim.Duration(h.Quantile(0.5)), sim.Duration(h.P99())
		row.Spread = maxMean - minMean
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the merged comparison.
func (r ReplicatedComparison) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Design,
			fmt.Sprintf("%d", row.SwitchHops),
			fmt.Sprintf("%d", row.SoftwareHops),
			row.Mean.String(),
			row.P50.String(),
			row.P99.String(),
			row.Spread.String(),
			fmt.Sprintf("%d", row.Orders),
		})
	}
	return fmt.Sprintf("Designs 1/3/2 over %d seeds (merged round-trip distributions)\n", len(r.Seeds)) +
		metrics.Table([]string{"design", "sw-hops", "fn-hops", "mean RT", "p50", "p99", "seed spread", "orders"}, rows)
}

// ReplicatedMroute is the E7 overflow cliff replicated over several seeds,
// with delivery-weighted latency means and pooled loss.
type ReplicatedMroute struct {
	replicated[MrouteOverflowResult]

	Groups, Capacity     int
	HWMean, SWMean       sim.Duration
	HWLossPct, SWLossPct float64
}

// RunMrouteOverflowSeeds replicates RunMrouteOverflow across seeds in
// parallel and pools the hardware/software paths' latency and loss.
func RunMrouteOverflowSeeds(groups, capacity, framesPerGroup int, seeds []int64) ReplicatedMroute {
	out := ReplicatedMroute{Groups: groups, Capacity: capacity,
		replicated: replicate(Scenario{}, seeds, func(s Scenario) MrouteOverflowResult {
			return RunMrouteOverflow(groups, capacity, framesPerGroup, s.Seed)
		})}
	var hwSum, swSum float64
	var hwDel, hwSent, swDel, swSent uint64
	for _, r := range out.Runs {
		//simlint:allow floatorder: Runs comes back from RunParallel in seed order, so this fold is pinned for a given seed list; the weighted products stay far below 2^53 and sum exactly
		hwSum += float64(r.HWMean) * float64(r.HWDelivered)
		//simlint:allow floatorder: same fixed seed-order fold as hwSum above
		swSum += float64(r.SWMean) * float64(r.SWDelivered)
		hwDel += r.HWDelivered
		hwSent += r.HWSent
		swDel += r.SWDelivered
		swSent += r.SWSent
	}
	if hwDel > 0 {
		out.HWMean = sim.Duration(hwSum / float64(hwDel))
	}
	if swDel > 0 {
		out.SWMean = sim.Duration(swSum / float64(swDel))
	}
	if hwSent > 0 {
		out.HWLossPct = (1 - float64(hwDel)/float64(hwSent)) * 100
	}
	if swSent > 0 {
		out.SWLossPct = (1 - float64(swDel)/float64(swSent)) * 100
	}
	return out
}

// String renders the pooled overflow cliff.
func (r ReplicatedMroute) String() string {
	return fmt.Sprintf(`Mroute table overflow (§3) over %d seeds: %d groups, table holds %d
  hardware groups: mean latency %v, loss %.1f%%
  software groups: mean latency %v, loss %.1f%%  ← the overflow cliff
`, len(r.Seeds), r.Groups, r.Capacity, r.HWMean, r.HWLossPct, r.SWMean, r.SWLossPct)
}
