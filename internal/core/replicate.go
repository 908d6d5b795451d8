package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// seedDesigns is one seed's run of a fault experiment on each standard
// design, in design order.
type seedDesigns[R any] struct {
	Seed    int64
	Designs []R
}

// designReport is a per-design fault experiment replicated across seeds
// (E21, E23): R is one design's run.
type designReport[R interface{ InvariantsOK() bool }] struct {
	Seeds []int64
	Runs  []seedDesigns[R]
}

// AllInvariantsOK reports whether every design run of every seed upheld the
// experiment's contract.
func (r designReport[R]) AllInvariantsOK() bool {
	for _, run := range r.Runs {
		for _, d := range run.Designs {
			if !d.InvariantsOK() {
				return false
			}
		}
	}
	return true
}

// runStandardDesigns runs one design's experiment on each of the standard
// designs for every seed, seeds in parallel, results in seed order. run gets
// the design's constructor rather than a plant so that it can build a second,
// identical one (E23's control).
func runStandardDesigns[R interface{ InvariantsOK() bool }](sc Scenario, seeds []int64, run func(build func() *Plant) R) designReport[R] {
	return designReport[R]{Seeds: seeds, Runs: RunParallel(seeds, func(seed int64) seedDesigns[R] {
		s := sc
		s.Seed = seed
		res := seedDesigns[R]{Seed: seed}
		for _, build := range StandardDesigns(s) {
			res.Designs = append(res.Designs, run(build))
		}
		return res
	})}
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
	Seeds []int64
	Runs  []DesignComparison
	Rows  []ReplicatedDesignRow
}

// RunDesignComparisonSeeds replicates RunDesignComparison across seeds in
// parallel and merges each design's round-trip samples into one
// distribution. Per-seed results stay available in Runs for variance
// inspection; each equals a sequential RunDesignComparison with that seed.
func RunDesignComparisonSeeds(sc Scenario, bursts int, seeds []int64) ReplicatedComparison {
	out := ReplicatedComparison{Seeds: seeds}
	out.Runs = RunParallel(seeds, func(seed int64) DesignComparison {
		s := sc
		s.Seed = seed
		return RunDesignComparison(s, bursts)
	})
	if len(out.Runs) == 0 {
		return out
	}
	for d := range out.Runs[0].Rows {
		h := metrics.NewHistogram()
		row := ReplicatedDesignRow{
			Design:       out.Runs[0].Rows[d].Design,
			SwitchHops:   out.Runs[0].Rows[d].SwitchHops,
			SoftwareHops: out.Runs[0].Rows[d].SoftwareHops,
		}
		var minMean, maxMean sim.Duration
		for i, run := range out.Runs {
			rt := run.Rows[d]
			for _, s := range rt.Samples {
				h.Observe(int64(s))
			}
			row.Orders += rt.Orders
			m := rt.Mean()
			if i == 0 || m < minMean {
				minMean = m
			}
			if i == 0 || m > maxMean {
				maxMean = m
			}
		}
		row.Mean = sim.Duration(h.Mean())
		row.P50 = sim.Duration(h.Quantile(0.5))
		row.P99 = sim.Duration(h.P99())
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
	Seeds []int64
	Runs  []MrouteOverflowResult

	Groups, Capacity     int
	HWMean, SWMean       sim.Duration
	HWLossPct, SWLossPct float64
}

// RunMrouteOverflowSeeds replicates RunMrouteOverflow across seeds in
// parallel and pools the hardware/software paths' latency and loss.
func RunMrouteOverflowSeeds(groups, capacity, framesPerGroup int, seeds []int64) ReplicatedMroute {
	out := ReplicatedMroute{Seeds: seeds, Groups: groups, Capacity: capacity}
	out.Runs = RunParallel(seeds, func(seed int64) MrouteOverflowResult {
		return RunMrouteOverflow(groups, capacity, framesPerGroup, seed)
	})
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
