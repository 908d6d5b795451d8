package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// quartiles returns the first and third quartile of v (exclusive method, as
// Python's statistics.quantiles(v, n=4) computes them).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

// judge compares the samples of one lower-is-better metric. The allowance is
// the relative bound, or the metric's absolute floor when that is larger. A
// median worse by more than the allowance is a regression; when the spread
// of either side's own runs exceeds the allowance the pair cannot be called,
// unless every run of b beats every run of a.
func judge(a, b []float64, bound, floor float64) string {
	ma, mb := median(a), median(b)
	allow := math.Max(bound*ma, floor)
	if slices.Max(b) < slices.Min(a) && ma-mb > iqr(a) {
		return improved
	}
	noisy := math.Max(iqr(a), iqr(b)) > allow
	switch {
	case mb-ma > allow && !noisy:
		return regressed
	case noisy:
		return unresolved
	}
	return unchanged
}

func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return q3 - q1
}

// compareFiles prints one row per (workload, end-to-end metric) of two suite
// results, b against base a, then every simulated output or count that
// differs. It reports whether anything regressed.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	var a, b suiteFile
	for path, f := range map[string]*suiteFile{pathA: &a, pathB: &b} {
		if err := readJSON(path, f); err != nil {
			return false, err
		}
		if f.Schema != suiteSchema {
			return false, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, suiteSchema)
		}
	}
	return compareResults(w, spec, &a, &b), nil
}

func failedOps(untraced []*runRecord, traced *runRecord) (n int64) {
	for _, r := range untraced {
		n += r.Result.Failed
	}
	if traced != nil {
		n += traced.Result.Failed
	}
	return n
}

// compareResults judges each end-to-end metric on the values of the untraced
// runs of a workload, and holds the model outputs of the traced runs against
// each other.
func compareResults(w io.Writer, spec *benchSpec, a, b *suiteFile) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tnew/base\tbound\tverdict\t")
	anyRegressed := false
	var notes []string
	for _, wl := range spec.Workloads {
		ua, ta := a.byWorkload(wl.Name)
		ub, tb := b.byWorkload(wl.Name)
		if len(ua) == 0 || len(ub) == 0 {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\tmissing from one side\t\n", wl.Name)
			anyRegressed = true
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ua, m.Name), values(ub, m.Name)
			ma, mb := median(va), median(vb)
			v := judge(va, vb, m.Bound, absFloor[m.Name])
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s (n=%d)\t%.4f %s (n=%d)\t%.3f\t%.0f%%\t%s\t\n",
				wl.Name, m.Name, ma, m.Unit, len(va), mb, m.Unit, len(vb), mb/ma, 100*m.Bound, v)
		}
		failedA, failedB := failedOps(ua, ta), failedOps(ub, tb)
		if failedB > 0 {
			fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\t\t\t%s\t\n", wl.Name, failedA, failedB, regressed)
			anyRegressed = true
		}

		// Model outputs are neither better nor worse, but a host-time gain
		// must leave them bit-identical.
		if ua[0].Seed == ub[0].Seed && ua[0].Sim != ub[0].Sim {
			notes = append(notes, fmt.Sprintf("%s: simulated fingerprint differs\n  base %s\n  new  %s", wl.Name, ua[0].Sim, ub[0].Sim))
		}
		if ta != nil && tb != nil && ta.Seed == tb.Seed {
			for _, name := range simCounts {
				if va, vb := ta.Result.Metrics[name], tb.Result.Metrics[name]; va.Value != vb.Value {
					notes = append(notes, fmt.Sprintf("%s: %s differs: base %v, new %v %s", wl.Name, name, va.Value, vb.Value, va.Unit))
				}
			}
		}
	}
	tw.Flush()
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	return anyRegressed
}
