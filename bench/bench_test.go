package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

func names(ms []specMetric) map[string]bool {
	out := make(map[string]bool, len(ms))
	for _, m := range ms {
		out[m.Name] = true
	}
	return out
}

// BENCHMARK.json stays inside the contract's caps and character sets, and
// every workload it names is one the harness can run.
func TestSpecWithinContract(t *testing.T) {
	spec := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range spec.Workloads {
		if _, err := newJob(w.Name, &runEnv{}); err != nil {
			t.Error(err)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}

	seen := map[string]bool{}
	check := func(kind string, ms []specMetric, limit int, bounded bool) {
		if len(ms) < 1 || len(ms) > limit {
			t.Errorf("%s: %d metrics, want 1..%d", kind, len(ms), limit)
		}
		for _, m := range ms {
			if seen[m.Name] {
				t.Errorf("%s: %s declared twice", kind, m.Name)
			}
			seen[m.Name] = true
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: %s (%s) breaks the name or unit character set", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better=%q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, 16, true)
	check("per_layer", spec.PerLayer, 128, false)
	for _, name := range simCounts {
		if !names(spec.PerLayer)[name] {
			t.Errorf("simCounts holds %s, which is not a declared per-layer metric", name)
		}
	}

	var setup *specMetric
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("end_to_end must hold setup_s in s, lower is better: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// A reduced-scale pass over all four workloads, traced, and the ladder: no
// operation fails, and between them they produce every declared metric and
// nothing else.
func TestSmokeEmitsDeclaredSet(t *testing.T) {
	spec := readSpec(t)
	dir := t.TempDir()
	got := map[string]bool{"bench.trace_overhead_pct": true} // the parent computes this one
	for _, wl := range spec.Workloads {
		name := wl.Name
		r, err := runRep(name, 7, smokeScale, true, time.Now(), dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 || r.Sim == "" {
			t.Errorf("%s: attempted %d, failed %d, sim %q: %v", name, r.Attempted, r.Failed, r.Sim, r.Failures)
		}
		if len(r.E2E) != len(spec.EndToEnd) {
			t.Errorf("%s: end-to-end metrics %v", name, r.E2E)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := r.E2E[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v", name, m.Name, v)
			}
		}
		for k := range r.Layer {
			got[k] = true
		}
		var sum float64
		for _, k := range shareNames() {
			v, ok := r.Layer[k]
			if !ok {
				t.Errorf("%s: no %s", name, k)
			}
			sum += v
		}
		if sum != 0 && math.Abs(sum-100) > 0.01 { // a smoke run can be too short for a single sample
			t.Errorf("%s: layer shares sum to %v", name, sum)
		}

		again, err := runRep(name, 7, smokeScale, false, time.Now(), dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again.Sim != r.Sim {
			t.Errorf("%s: fingerprint changed between repetitions:\n%s\n%s", name, r.Sim, again.Sim)
		}
	}
	for name, r := range runLadder(smokeScale) {
		got[name+".ns"], got[name+".allocs"] = true, true
		if r.NS <= 0 {
			t.Errorf("rung %s took %v ns", name, r.NS)
		}
	}
	want := names(spec.PerLayer)
	for name := range want {
		if !got[name] {
			t.Errorf("%s is declared but the smoke run never produced it", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("%s is produced but not declared", name)
		}
	}
}

// fakeSuite is a suite result of five untraced runs and a traced one per
// workload, with every end-to-end metric around 8, except metric around
// 8*factor.
func fakeSuite(spec *benchSpec, metric string, factor float64) *suiteFile {
	f := &suiteFile{Schema: suiteSchema}
	for _, wl := range spec.Workloads {
		for _, jitter := range []float64{0.99, 1.01, 1, 0.995, 1.005} {
			r := &runRecord{Workload: wl.Name, Seed: 1, Reps: 1, Sim: "events=1", Result: runResult{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}}
			for _, m := range spec.EndToEnd {
				v := 8 * jitter
				if m.Name == metric {
					v *= factor
				}
				r.Result.Metrics[m.Name] = metricValue{v, m.Unit}
			}
			f.Runs = append(f.Runs, r)
		}
		tr := &runRecord{Workload: wl.Name, Seed: 1, Trace: 1, Reps: 1, Sim: "events=1", Result: runResult{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}}
		for _, name := range simCounts {
			tr.Result.Metrics[name] = metricValue{42, "count"}
		}
		f.Runs = append(f.Runs, tr)
	}
	return f
}

func TestCompare(t *testing.T) {
	spec := readSpec(t)
	var out bytes.Buffer
	base := func() *suiteFile { return fakeSuite(spec, "", 1) }
	if compareResults(&out, spec, base(), base()) {
		t.Errorf("an identical pair regressed:\n%s", out.String())
	}
	if strings.Contains(out.String(), regressed) || strings.Contains(out.String(), "differs") {
		t.Errorf("an identical pair is not all unchanged:\n%s", out.String())
	}

	out.Reset()
	// 12 % worse on the metric whose bound is 10 %.
	worse := fakeSuite(spec, "alloc_mb", 1.12)
	_, tr := worse.byWorkload("chaos-small")
	tr.Result.Metrics["sim.events"] = metricValue{43, "count"}
	if !compareResults(&out, spec, base(), worse) {
		t.Errorf("a 12%% alloc_mb regression passed:\n%s", out.String())
	}
	rows := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, regressed) {
			rows++
			if !strings.Contains(line, "alloc_mb") {
				t.Errorf("unexpected regression row: %s", line)
			}
		}
	}
	if rows != len(spec.Workloads) {
		t.Errorf("%d regressed rows, want one alloc_mb row per workload:\n%s", rows, out.String())
	}
	if !strings.Contains(out.String(), "chaos-small: sim.events differs") {
		t.Errorf("a changed simulated count went unreported:\n%s", out.String())
	}

	out.Reset()
	// 30 % worse on run_s, whose bound is 25 %.
	if !compareResults(&out, spec, base(), fakeSuite(spec, "run_s", 1.3)) || strings.Count(out.String(), regressed) != len(spec.Workloads) {
		t.Errorf("a 30%% run_s regression was not reported on every workload:\n%s", out.String())
	}

	out.Reset()
	if compareResults(&out, spec, base(), fakeSuite(spec, "run_s", 0.8)) || !strings.Contains(out.String(), improved) {
		t.Errorf("a 20%% run_s gain was not reported as improved:\n%s", out.String())
	}
}

// The suite's table names every declared metric with its unit.
func TestPrintSuiteNamesEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var out bytes.Buffer
	printSuite(&out, spec, fakeSuite(spec, "", 1))
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +\S+ +` + regexp.QuoteMeta(m.Unit) + `(\s|$)`).MatchString(out.String()) {
			t.Errorf("the table has no row for %s in %s", m.Name, m.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}
