package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// maxReps caps the untraced repetitions of one run, and is how many rounds
// the suite makes.
const maxReps = 5

// setupSamples is how many set-ups a run takes setup_s as the median of.
// Set-up takes milliseconds on two workloads, so the repetitions alone are
// too few to steady it; the rest come from children that stop after set-up.
const setupSamples = 9

// childTimeout bounds one child; a run's children together stay inside the
// 180 s a run is allowed.
const childTimeout = 150 * time.Second

// probeWorkload is Design 1 at the full PaperScenario (README, "Design 1 at
// 988 servers"): run on request, once, after everything else.
const probeWorkload = "d1-paper-988"

// harness is the parent side: it starts children, one at a time, and folds
// what they report.
type harness struct {
	ctx  context.Context
	spec *benchSpec
	seed int64

	firstSim map[string]string     // workload -> the first repetition's simulated fingerprint
	rungs    map[string]rungResult // the ladder depends on neither workload nor seed: measured once
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of standard output of one run.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as the suite files it and -compare reads it: the
// result line, plus what the driver passed on the command line and the
// simulated fingerprint.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    int       `json:"trace"`
	Reps     int       `json:"reps"` // untraced repetitions behind the medians
	Sim      string    `json:"sim"`
	Result   runResult `json:"result"`
}

// child re-executes this binary in one of its -child modes and decodes what
// it prints.
func (h *harness) child(out any, mode, workload string, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(h.ctx, childTimeout)
	defer cancel()
	args := []string{"-child", mode, "-workload", workload,
		"-seed", strconv.FormatInt(scenarioSeed(workload, h.seed), 10),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return nil
}

// rep runs one repetition and holds it against the workload's earlier ones:
// the simulated fingerprint must not change, whatever the timings say.
func (h *harness) rep(workload string, traced bool) (*repResult, error) {
	var r repResult
	if err := h.child(&r, "rep", workload, traced); err != nil {
		return nil, err
	}
	r.Attempted++
	if first, seen := h.firstSim[workload]; !seen {
		h.firstSim[workload] = r.Sim
	} else if r.Sim != first {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("simulated fingerprint differs between repetitions of seed %d:\n  %s\n  %s", r.Seed, first, r.Sim))
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", workload, f)
	}
	if p, ok := seedPools[workload]; ok {
		if ev := r.Layer["sim.events"]; ev < p.loEvents || ev > p.hiEvents {
			fmt.Fprintf(os.Stderr, "bench: %s: scenario seed %d fired %.0f events, outside its pool's band %.0f..%.0f: the model moved, rescan the pool (bench/README.md, Seeds)\n",
				workload, r.Seed, ev, p.loEvents, p.hiEvents)
		}
	}
	return &r, nil
}

// ladder measures the rungs in a child of their own, once per process.
func (h *harness) ladder() (map[string]rungResult, error) {
	if h.rungs == nil {
		if err := h.child(&h.rungs, "ladder", "", false); err != nil {
			return nil, err
		}
	}
	return h.rungs, nil
}

// samples picks one end-to-end metric out of repetitions.
func samples(reps []*repResult, metric string) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = r.E2E[metric]
	}
	return v
}

// oneRun is the form BENCHMARK.json declares: one workload, one seed.
// Untraced, it repeats the workload for as long as one more repetition fits
// into budget (a workload is a fixed amount of work, so the first always
// runs), tops the set-ups up to setupSamples, and reports each end-to-end
// metric's median. Traced, it runs one untraced repetition, one traced, and
// the ladder, and reports the per-layer metrics: counts and runtime numbers
// from the untraced repetition; CPU shares, span shares and live heap from
// the traced one, which never reaches an end-to-end median.
func (h *harness) oneRun(workload string, budget time.Duration, traced bool) (*runRecord, error) {
	rec := &runRecord{Workload: workload, Seed: h.seed, Result: runResult{Metrics: map[string]metricValue{}}}
	var reps []*repResult
	add := func(traced bool) (*repResult, error) {
		r, err := h.rep(workload, traced)
		if err != nil {
			return nil, err
		}
		rec.Result.Attempted += r.Attempted
		rec.Result.Failed += r.Failed
		return r, nil
	}
	var measured, last float64
	for len(reps) == 0 || (!traced && len(reps) < maxReps && measured+last <= budget.Seconds()) {
		r, err := add(false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		last = r.E2E["run_s"]
		measured += last
	}

	if traced {
		rec.Trace = 1
		tr, err := add(true)
		if err != nil {
			return nil, err
		}
		rungs, err := h.ladder()
		if err != nil {
			return nil, err
		}
		// Counts and runtime numbers come from the untraced repetition, the
		// rest from the traced one. A metric that does not apply to the
		// workload (sim.events on codec-stream, a span it never opens)
		// reads 0.
		value := func(name string) float64 {
			if rung, ok := strings.CutSuffix(name, ".ns"); ok {
				return rungs[rung].NS
			}
			if rung, ok := strings.CutSuffix(name, ".allocs"); ok {
				return rungs[rung].Allocs
			}
			if name == "bench.trace_overhead_pct" {
				return 100 * (tr.E2E["run_s"]/reps[0].E2E["run_s"] - 1)
			}
			if v, ok := reps[0].Layer[name]; ok {
				return v
			}
			return tr.Layer[name]
		}
		for _, m := range h.spec.PerLayer {
			rec.Result.Metrics[m.Name] = metricValue{value(m.Name), m.Unit}
		}
	} else {
		setups := samples(reps, "setup_s")
		for len(setups) < setupSamples {
			var r repResult
			if err := h.child(&r, "setup", workload, false); err != nil {
				return nil, err
			}
			setups = append(setups, r.E2E["setup_s"])
		}
		for _, m := range h.spec.EndToEnd {
			v := samples(reps, m.Name)
			if m.Name == "setup_s" {
				v = setups
			}
			rec.Result.Metrics[m.Name] = metricValue{median(v), m.Unit}
		}
	}
	rec.Reps, rec.Sim, rec.Result.Correct = len(reps), reps[0].Sim, rec.Result.Failed == 0
	fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %d untraced repetition(s), %d operations, %d failed; %s\n",
		workload, h.seed, rec.Trace, len(reps), rec.Result.Attempted, rec.Result.Failed, rec.Sim)
	return rec, nil
}

// suiteFile is what the suite writes to result.json, what baseline.json
// holds and what -compare reads: runs, each as the driver would have got it.
type suiteFile struct {
	Schema     string       `json:"schema"`
	Go         string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Runs       []*runRecord `json:"runs"`
}

const suiteSchema = "tradenet.bench.v2"

// suite runs every workload: maxReps rounds of one-repetition untraced runs,
// interleaved round-robin so that a slow minute of the box lands on every
// workload alike, then one traced run each, then (on request) the
// paper-scale probe, which goes last because it leaves the box noisy for
// minutes.
func (h *harness) suite(w io.Writer, probe bool) (bool, error) {
	f := &suiteFile{Schema: suiteSchema, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	ok := true
	run := func(workload string, traced bool) error {
		rec, err := h.oneRun(workload, 0, traced) // no budget: the one repetition that always runs
		if err != nil {
			return err
		}
		f.Runs = append(f.Runs, rec)
		ok = ok && rec.Result.Correct
		return nil
	}
	for round := 0; round <= maxReps; round++ {
		for _, wl := range h.spec.Workloads {
			if err := run(wl.Name, round == maxReps); err != nil {
				return false, err
			}
		}
	}
	if probe {
		r, err := h.rep(probeWorkload, false)
		if err != nil {
			return false, err
		}
		ok = ok && r.Failed == 0
		f.Runs = append(f.Runs, &runRecord{Workload: probeWorkload, Seed: h.seed, Trace: 1, Reps: 1, Sim: r.Sim,
			Result: runResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{
				"core.d1_988_run_s":       {r.E2E["run_s"], "s"},
				"core.d1_988_peak_rss_mb": {r.E2E["peak_rss_mb"], "MB"},
				"core.d1_988_sys_cpu_s":   {r.Layer["runtime.sys_cpu_s"], "s"},
			}}})
	}

	printSuite(w, h.spec, f)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "\nwrote %s\n", path)
	return ok, nil
}

// byWorkload splits a file's runs of one workload into untraced and traced.
func (f *suiteFile) byWorkload(name string) (untraced []*runRecord, traced *runRecord) {
	for _, r := range f.Runs {
		switch {
		case r.Workload != name:
		case r.Trace == 0:
			untraced = append(untraced, r)
		default:
			traced = r
		}
	}
	return untraced, traced
}

// values picks one metric out of runs.
func values(runs []*runRecord, metric string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Result.Metrics[metric].Value
	}
	return v
}

// short prints a count with all its digits and anything else to four.
func short(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// printSuite prints every declared metric by name with its unit. The ladder
// does not depend on the workload, so it is printed once.
func printSuite(w io.Writer, spec *benchSpec, f *suiteFile) {
	isRung := func(name string) bool { return strings.HasSuffix(name, ".ns") || strings.HasSuffix(name, ".allocs") }
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	var rungs *runRecord
	for _, wl := range spec.Workloads {
		untraced, traced := f.byWorkload(wl.Name)
		if len(untraced) == 0 || traced == nil {
			continue
		}
		rungs = traced
		var attempted, failed int64
		for _, r := range append(untraced, traced) {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
		}
		fmt.Fprintf(tw, "\n%s seed %d: %d operations, %d failed\n  sim: %s\n", wl.Name, traced.Seed, attempted, failed, traced.Sim)
		for _, m := range spec.EndToEnd {
			fmt.Fprintf(tw, "  %s\t%.4f\t%s\tmedian of n=%d\n", m.Name, median(values(untraced, m.Name)), m.Unit, len(untraced))
		}
		for _, m := range spec.PerLayer {
			if !isRung(m.Name) {
				fmt.Fprintf(tw, "  %s\t%s\t%s\t\n", m.Name, short(traced.Result.Metrics[m.Name].Value), m.Unit)
			}
		}
	}
	if rungs != nil {
		fmt.Fprintf(tw, "\nladder\n")
		for _, m := range spec.PerLayer {
			if isRung(m.Name) {
				fmt.Fprintf(tw, "  %s\t%s\t%s\t\n", m.Name, short(rungs.Result.Metrics[m.Name].Value), m.Unit)
			}
		}
	}
	if _, probe := f.byWorkload(probeWorkload); probe != nil {
		fmt.Fprintf(tw, "\n%s: one run\n", probeWorkload)
		for _, name := range []string{"core.d1_988_run_s", "core.d1_988_peak_rss_mb", "core.d1_988_sys_cpu_s"} {
			v := probe.Result.Metrics[name]
			fmt.Fprintf(tw, "  %s\t%.4f\t%s\t\n", name, v.Value, v.Unit)
		}
	}
	tw.Flush()
}
