package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tradenet/internal/manifest"
)

// runCheck validates every argument: directories and *.ndjson files as
// run manifests, BENCH_PR*.json files as recorded benchmark references.
// All problems are reported before failing.
func runCheck(w io.Writer, paths []string) error {
	var problems []string
	checked := 0
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		switch {
		case st.IsDir():
			arts, err := manifest.LoadDir(p)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			if len(arts) == 0 {
				problems = append(problems, fmt.Sprintf("%s: no *.ndjson manifests", p))
				continue
			}
			for _, a := range arts {
				if err := a.Validate(); err != nil {
					problems = append(problems, fmt.Sprintf("%s/%s: %v", p, a.Filename(), err))
				}
				checked++
			}
		case strings.HasSuffix(p, ".ndjson"):
			a, err := manifest.Load(p)
			if err == nil {
				err = a.Validate()
			}
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", p, err))
			}
			checked++
		case strings.HasSuffix(p, ".json"):
			if err := checkBenchJSON(p); err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", p, err))
			}
			checked++
		default:
			problems = append(problems, fmt.Sprintf("%s: not a manifest (.ndjson), telemetry dir, or bench reference (.json)", p))
		}
	}
	for _, p := range problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s) in %d checked file(s)", len(problems), checked)
	}
	fmt.Fprintf(w, "ok: %d file(s) checked\n", checked)
	return nil
}

// checkBenchJSON validates a BENCH_PR*.json recorded-benchmark file: a
// description, optional determinism note, and per-knob sections mapping
// benchmark names to {before, after, ratio} entries.
func checkBenchJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	var desc string
	if err := json.Unmarshal(doc["description"], &desc); err != nil || desc == "" {
		return fmt.Errorf("missing or empty description")
	}
	sections := 0
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k == "description" || k == "determinism" {
			continue
		}
		var sec map[string]struct {
			Before map[string]json.RawMessage `json:"before"`
			After  map[string]json.RawMessage `json:"after"`
			Ratio  *float64                   `json:"ratio"`
		}
		if err := json.Unmarshal(doc[k], &sec); err != nil {
			return fmt.Errorf("section %q: %w", k, err)
		}
		for name, e := range sec {
			if !strings.HasPrefix(name, "Benchmark") {
				return fmt.Errorf("section %q: entry %q is not a Benchmark name", k, name)
			}
			if len(e.Before) == 0 && len(e.After) == 0 {
				return fmt.Errorf("section %q: %s has neither before nor after numbers", k, name)
			}
			if e.Ratio != nil && (*e.Ratio <= 0 || *e.Ratio > 100) {
				return fmt.Errorf("section %q: %s ratio %v out of range", k, name, *e.Ratio)
			}
		}
		sections++
	}
	if sections == 0 {
		return fmt.Errorf("no benchmark sections")
	}
	return nil
}
