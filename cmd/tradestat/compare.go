package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tradenet/internal/manifest"
)

// runCompare matches manifests between base and head by run identity and
// gates head's wall time per run and alloc/event against base. A matched
// run is the same experiment on the same seed — the same simulated work — so
// its wall time compares directly; events/sec is shown beside it and not
// gated, because it moves whenever a revision changes what the scheduler
// fires an event for. Runs present on only one side are listed but don't
// gate (experiments come and go across PRs); matched runs without host stats
// are skipped for the time and reported as such.
func runCompare(w io.Writer, baseDir, headDir string, timeThresh, gcThresh float64, csvPath string) error {
	base, err := loadArtifacts(baseDir)
	if err != nil {
		return err
	}
	head, err := loadArtifacts(headDir)
	if err != nil {
		return err
	}
	baseBy := byKey(base)
	headBy := byKey(head)

	keys := make([]string, 0, len(baseBy))
	for k := range baseBy {
		if _, ok := headBy[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	type row struct {
		key                  string
		baseMs, headMs       float64 // wall ms per run
		baseEv, headEv       float64 // events/sec
		baseAlloc, headAlloc float64 // alloc bytes/event
		timeBad, gcBad       bool
	}
	var rows []row
	var regressions []string
	for _, k := range keys {
		b, h := baseBy[k], headBy[k]
		r := row{key: k,
			baseMs: wallMs(b), headMs: wallMs(h),
			baseEv: b.EventsPerSec(), headEv: h.EventsPerSec(),
			baseAlloc: b.AllocPerEvent(), headAlloc: h.AllocPerEvent()}
		if r.baseMs > 0 && r.headMs > (1+timeThresh)*r.baseMs {
			r.timeBad = true
			regressions = append(regressions, fmt.Sprintf(
				"%s: wall %.2f -> %.2f ms (%.1f%%), beyond the %.0f%% gate",
				k, r.baseMs, r.headMs, 100*r.headMs/r.baseMs, 100*timeThresh))
		}
		if r.baseAlloc > 0 && r.headAlloc > 0 && r.headAlloc > (1+gcThresh)*r.baseAlloc {
			r.gcBad = true
			regressions = append(regressions, fmt.Sprintf(
				"%s: alloc/event %.1f -> %.1f B (%.1f%%), beyond the %.0f%% GC-pressure gate",
				k, r.baseAlloc, r.headAlloc, 100*r.headAlloc/r.baseAlloc, 100*gcThresh))
		}
		rows = append(rows, r)
	}

	render := make([][]string, 0, len(rows))
	var csv strings.Builder
	csv.WriteString("run,base_wall_ms,head_wall_ms,wall_ratio,base_events_per_sec,head_events_per_sec,base_alloc_per_event,head_alloc_per_event,alloc_ratio\n")
	for _, r := range rows {
		render = append(render, []string{
			r.key,
			millis(r.baseMs), millis(r.headMs), ratioCell(r.baseMs, r.headMs, r.timeBad),
			rate(r.baseEv), rate(r.headEv),
			bytesPer(r.baseAlloc), bytesPer(r.headAlloc), ratioCell(r.baseAlloc, r.headAlloc, r.gcBad),
		})
		fmt.Fprintf(&csv, "%s,%.3f,%.3f,%s,%.0f,%.0f,%.2f,%.2f,%s\n",
			r.key, r.baseMs, r.headMs, csvRatio(r.baseMs, r.headMs), r.baseEv, r.headEv,
			r.baseAlloc, r.headAlloc, csvRatio(r.baseAlloc, r.headAlloc))
	}
	fmt.Fprintf(w, "Telemetry comparison: %s (base) vs %s (head), %d matched run(s); events/sec shown, not gated\n",
		baseDir, headDir, len(rows))
	fmt.Fprint(w, table([]string{"run", "base ms", "head ms", "delta", "base ev/s", "head ev/s", "base B/ev", "head B/ev", "delta"}, render))
	for _, k := range onlyIn(baseBy, headBy) {
		fmt.Fprintf(w, "only in base: %s\n", k)
	}
	for _, k := range onlyIn(headBy, baseBy) {
		fmt.Fprintf(w, "only in head: %s\n", k)
	}

	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", csvPath)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(w, "REGRESSION %s\n", r)
		}
		return fmt.Errorf("%d regression(s)", len(regressions))
	}
	if len(rows) == 0 {
		return fmt.Errorf("no matched runs between %s and %s", baseDir, headDir)
	}
	fmt.Fprintln(w, "ok: no regressions")
	return nil
}

// byKey indexes artifacts by run identity; a duplicate key keeps the
// first (LoadDir order is deterministic).
func byKey(arts []*manifest.Artifact) map[string]*manifest.Artifact {
	m := make(map[string]*manifest.Artifact, len(arts))
	for _, a := range arts {
		k := runKey(a)
		if _, ok := m[k]; !ok {
			m[k] = a
		}
	}
	return m
}

// onlyIn returns keys of a not present in b, sorted.
func onlyIn(a, b map[string]*manifest.Artifact) []string {
	var out []string
	for k := range a {
		if _, ok := b[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// wallMs is a run's host wall time in milliseconds (0 if unknown).
func wallMs(a *manifest.Artifact) float64 {
	if a.Host == nil || a.Host.WallNs <= 0 {
		return 0
	}
	return float64(a.Host.WallNs) / 1e6
}

func millis(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

func rate(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

func bytesPer(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// ratioCell renders head/base; flagged cells carry a marker so the
// regression is visible in the table, not only in the FAIL lines.
func ratioCell(base, head float64, bad bool) string {
	if base == 0 || head == 0 {
		return "-"
	}
	s := fmt.Sprintf("%+.1f%%", 100*(head/base-1))
	if bad {
		s += " !"
	}
	return s
}

func csvRatio(base, head float64) string {
	if base == 0 || head == 0 {
		return ""
	}
	return fmt.Sprintf("%.4f", head/base)
}

// runTrend renders wall time per run across telemetry directories in
// argument order — the perf trajectory across revisions — with events/sec
// beside it for reading within one definition of an event.
func runTrend(w io.Writer, dirs []string, csvPath string) error {
	cols := make([]map[string]*manifest.Artifact, len(dirs))
	keySet := map[string]bool{}
	for i, d := range dirs {
		arts, err := loadArtifacts(d)
		if err != nil {
			return err
		}
		cols[i] = byKey(arts)
		for k := range cols[i] {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	headers := []string{"run"}
	csvHead := []string{"run"}
	for _, d := range dirs {
		headers = append(headers, d+" ms", "ev/s")
		csvHead = append(csvHead, d+"_wall_ms", d+"_events_per_sec")
	}
	rows := make([][]string, 0, len(keys))
	var csv strings.Builder
	csv.WriteString(strings.Join(csvHead, ",") + "\n")
	for _, k := range keys {
		row := []string{k}
		csvRow := []string{k}
		for i := range dirs {
			ms, ev := 0.0, 0.0
			if a, ok := cols[i][k]; ok {
				ms, ev = wallMs(a), a.EventsPerSec()
			}
			row = append(row, millis(ms), rate(ev))
			csvRow = append(csvRow, fmt.Sprintf("%.3f", ms), fmt.Sprintf("%.0f", ev))
		}
		rows = append(rows, row)
		csv.WriteString(strings.Join(csvRow, ",") + "\n")
	}
	fmt.Fprintf(w, "wall ms per run (and events/sec) across %d revision(s)\n", len(dirs))
	fmt.Fprint(w, table(headers, rows))
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", csvPath)
	}
	return nil
}
