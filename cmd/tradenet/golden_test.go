package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tradenet/internal/core"
	"tradenet/internal/manifest"
	"tradenet/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's output")

// Fixed-seed output is the spec: every registered experiment, at small scale
// with the flag defaults, must print exactly what testdata/all.seed<N>.golden
// holds — the text of `tradenet -experiment all -seed N` with the budget
// experiment's two wall-clock ns/msg lines masked. A refactor that moves a
// byte fails here with the first differing line; a deliberate change to an
// experiment's output re-records with -update and shows up in review as a
// diff of the golden files.
func TestExperimentsMatchGolden(t *testing.T) {
	for _, seed := range []int64{1, 3, 7} {
		got := maskWallClock(runAllExperiments(t, seed))
		path := filepath.Join("testdata", fmt.Sprintf("all.seed%d.golden", seed))
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("seed %d: output differs from %s\n%s", seed, path, firstDiff(string(want), got))
		}
	}
}

// The per-seed and merged paths of the experiments that take -replications:
// `tradenet -experiment <id> -seed 1 -replications 3` must print exactly
// testdata/<id>.reps3.golden — per-seed row order, seed-count headers, the
// first-seed appendix, and the merged designs/mroute tables.
func TestReplicatedExperimentsMatchGolden(t *testing.T) {
	for _, id := range []string{"failover", "oefailover", "wanredundancy", "exchangefailover", "designs", "mroute"} {
		e, ok := lookupExperiment(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		cfg := defaultCfg(1)
		cfg.reps = 3
		got := captureStdout(t, func() { e.run(cfg) })
		path := filepath.Join("testdata", id+".reps3.golden")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from %s\n%s", id, path, firstDiff(string(want), got))
		}
	}
}

// The run manifests of the four fault experiments at -replications 2 with
// telemetry armed: each manifest's file name and the sha256 of its NDJSON
// bytes (no hoststats line — the runner returns manifests before main
// stamps host statistics on them), in emission order.
func TestFaultManifestsMatchDigests(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{"failover", failoverDigests},
		{"oefailover", oefailoverDigests},
		{"wanredundancy", wanredundancyDigests},
		{"exchangefailover", exchangefailoverDigests},
	} {
		e, _ := lookupExperiment(tc.id)
		cfg := defaultCfg(1)
		cfg.reps = 2
		cfg.sc.Telemetry = &core.TelemetrySpec{Interval: 500 * sim.Microsecond}
		var arts []*manifest.Artifact
		captureStdout(t, func() { arts = e.run(cfg) })
		var got []string
		for _, a := range arts {
			sum := sha256.Sum256([]byte(a.StripHost().EncodeString()))
			got = append(got, fmt.Sprintf("%s %x", a.Filename(), sum))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: manifests differ\n--- want\n%s\n--- got\n%s", tc.id,
				strings.Join(tc.want, "\n"), strings.Join(got, "\n"))
		}
	}
}

// defaultCfg is the runner configuration of `-seed seed` at small scale with
// every other flag at its default.
func defaultCfg(seed int64) runCfg {
	sc := core.SmallScenario()
	sc.Seed = seed
	return runCfg{sc: sc, frames: 200_000, bursts: 4, reps: 1}
}

// runAllExperiments is `-experiment all -seed seed` with every other flag at
// its default.
func runAllExperiments(t *testing.T, seed int64) string {
	t.Helper()
	cfg := defaultCfg(seed)
	return captureStdout(t, func() {
		for _, e := range experiments {
			fmt.Printf("=== %s ===\n", e.id)
			e.run(cfg)
		}
	})
}

// captureStdout returns what run prints, captured through a temporary file.
func captureStdout(t *testing.T, run func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	run()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// maskWallClock blanks the measured value of every "ns/msg" line (E13 times
// the real codec on the host; everything else in the output is virtual time).
func maskWallClock(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.Contains(l, "ns/msg") {
			lines[i] = l[:strings.Index(l, ":")+1] + " <wall clock>"
		}
	}
	return strings.Join(lines, "\n")
}

// firstDiff renders the first differing line of two texts with three lines
// of context on either side, and which experiment's block it falls in.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i, block := 0, ""
	for i < len(w) && i < len(g) && w[i] == g[i] {
		if strings.HasPrefix(w[i], "=== ") {
			block = w[i]
		}
		i++
	}
	window := func(lines []string) string {
		lo, hi := max(i-3, 0), min(i+4, len(lines))
		return strings.Join(lines[lo:hi], "\n")
	}
	return fmt.Sprintf("first difference at line %d, in %s\n--- want\n%s\n--- got\n%s", i+1, block, window(w), window(g))
}
