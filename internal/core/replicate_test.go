package core

import (
	"fmt"
	"reflect"
	"testing"

	"tradenet/internal/manifest"
	"tradenet/internal/metrics"
)

func TestSeeds(t *testing.T) {
	got := Seeds(7, 4)
	want := []int64{7, 8, 9, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Seeds(7,4) = %v, want %v", got, want)
	}
	if len(Seeds(1, 0)) != 0 {
		t.Fatalf("Seeds(1,0) should be empty")
	}
}

func TestRunParallelPreservesSeedOrder(t *testing.T) {
	seeds := Seeds(100, 64)
	got := RunParallel(seeds, func(seed int64) int64 { return seed * 3 })
	for i, v := range got {
		if v != seeds[i]*3 {
			t.Fatalf("result[%d] = %d, want %d", i, v, seeds[i]*3)
		}
	}
}

// TestRunParallelMatchesSequential is the core determinism claim: fanning N
// seeds of a full plant simulation across workers yields bit-for-bit the
// same results as running them one at a time. Run with -race to also prove
// the replications share no mutable state.
func TestRunParallelMatchesSequential(t *testing.T) {
	sc := SmallScenario()
	seeds := Seeds(1, 4)
	run := func(seed int64) DesignComparison {
		s := sc
		s.Seed = seed
		return RunDesignComparison(s, 2)
	}

	sequential := make([]DesignComparison, len(seeds))
	for i, s := range seeds {
		sequential[i] = run(s)
	}
	parallel := RunParallel(seeds, run)

	if !reflect.DeepEqual(sequential, parallel) {
		t.Fatalf("parallel replications diverge from sequential runs:\nsequential: %+v\nparallel:   %+v",
			sequential, parallel)
	}
}

// TestRunParallelRepeatable: two parallel runs of the same seed set are
// identical to each other, however the work interleaves.
func TestRunParallelRepeatable(t *testing.T) {
	seeds := Seeds(3, 3)
	run := func(seed int64) MrouteOverflowResult {
		return RunMrouteOverflow(12, 6, 10, seed)
	}
	a := RunParallel(seeds, run)
	b := RunParallel(seeds, run)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated parallel runs diverge:\n%+v\n%+v", a, b)
	}
}

func TestRunDesignComparisonSeedsMergesRuns(t *testing.T) {
	sc := SmallScenario()
	seeds := Seeds(1, 3)
	rep := RunDesignComparisonSeeds(sc, 2, seeds)
	if len(rep.Runs) != len(seeds) {
		t.Fatalf("got %d runs, want %d", len(rep.Runs), len(seeds))
	}
	// Each per-seed run must equal the sequential single-seed experiment.
	for i, seed := range seeds {
		s := sc
		s.Seed = seed
		want := RunDesignComparison(s, 2)
		if !reflect.DeepEqual(rep.Runs[i], want) {
			t.Fatalf("run for seed %d diverges from sequential result", seed)
		}
	}
	if len(rep.Rows) != len(rep.Runs[0].Rows) {
		t.Fatalf("got %d merged rows, want %d", len(rep.Rows), len(rep.Runs[0].Rows))
	}
	for d, row := range rep.Rows {
		wantOrders := 0
		for _, run := range rep.Runs {
			wantOrders += run.Rows[d].Orders
		}
		if row.Orders != wantOrders {
			t.Errorf("%s: merged orders %d, want %d", row.Design, row.Orders, wantOrders)
		}
		if row.Mean <= 0 || row.P99 < row.P50 {
			t.Errorf("%s: implausible merged stats: mean %v p50 %v p99 %v",
				row.Design, row.Mean, row.P50, row.P99)
		}
	}
	if rep.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestRunMrouteOverflowSeedsPools(t *testing.T) {
	seeds := Seeds(1, 3)
	rep := RunMrouteOverflowSeeds(12, 6, 10, seeds)
	if len(rep.Runs) != len(seeds) {
		t.Fatalf("got %d runs, want %d", len(rep.Runs), len(seeds))
	}
	for i, seed := range seeds {
		want := RunMrouteOverflow(12, 6, 10, seed)
		if !reflect.DeepEqual(rep.Runs[i], want) {
			t.Fatalf("run for seed %d diverges from sequential result", seed)
		}
	}
	if rep.HWMean <= 0 || rep.SWMean <= rep.HWMean {
		t.Fatalf("implausible pooled means: hw %v sw %v", rep.HWMean, rep.SWMean)
	}
	if rep.String() == "" {
		t.Fatal("empty rendering")
	}
}

// fakeCell is a stand-in design run for exercising the fault harness.
type fakeCell struct {
	name string
	ok   bool
}

func (c fakeCell) InvariantsOK() bool { return c.ok }

// TestFaultExperimentHarness drives the seed × cell harness with a fake
// experiment: a row per seed × cell with the seed first, the verdict column
// and AllInvariantsOK flagging the one broken cell, the first seed's
// appendix, and one meta-only manifest per seed and cell.
func TestFaultExperimentHarness(t *testing.T) {
	exp := &faultExperiment[seedDesigns[fakeCell]]{
		id: "fake", title: "Fake experiment", intro: "intro\n",
		run: func(sc Scenario) seedDesigns[fakeCell] {
			return seedDesigns[fakeCell]{Seed: sc.Seed, Designs: []fakeCell{{"a", true}, {"b", sc.Seed != 2}}}
		},
		tables: []func([]int64, []seedDesigns[fakeCell]) string{table("cells:\n", seedDesigns[fakeCell].cells, []column[fakeCell]{
			{"design", func(c fakeCell) any { return c.name }},
			{"invariants", verdict[fakeCell]},
		})},
		appendix: func(seed int64, first seedDesigns[fakeCell]) string {
			return fmt.Sprintf("first seed %d: %d designs\n", seed, len(first.Designs))
		},
		manifests: func(s seedDesigns[fakeCell]) []faultCell {
			var cells []faultCell
			for _, c := range s.Designs {
				cells = append(cells, faultCell{design: c.name, faults: logs("faults", "log "+c.name)})
			}
			return cells
		},
	}

	rep := exp.replicate(Scenario{}, Seeds(1, 2))
	want := "Fake experiment, 2 seed(s)\n\nintro\ncells:\n" +
		metrics.Table([]string{"seed", "design", "invariants"}, [][]string{
			{"1", "a", "ok"}, {"1", "b", "ok"}, {"2", "a", "ok"}, {"2", "b", "VIOLATED"},
		}) + "first seed 1: 2 designs\n"
	if got := rep.String(); got != want {
		t.Errorf("rendering:\n%s\nwant:\n%s", got, want)
	}
	if rep.AllInvariantsOK() {
		t.Error("AllInvariantsOK missed seed 2's broken cell")
	}
	if !exp.replicate(Scenario{}, Seeds(1, 1)).AllInvariantsOK() {
		t.Error("AllInvariantsOK false on a clean seed")
	}

	var names []string
	for _, a := range rep.Manifests() {
		if a.Meta.Schema != manifest.Schema || a.Meta.Experiment != "fake" || len(a.Faults) != 1 || a.Faults[0].Log != "log "+a.Meta.Design {
			t.Errorf("manifest %+v", a)
		}
		names = append(names, a.Filename())
	}
	wantNames := []string{"fake-a-seed1.ndjson", "fake-b-seed1.ndjson", "fake-a-seed2.ndjson", "fake-b-seed2.ndjson"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("manifest names %v, want %v", names, wantNames)
	}
}
