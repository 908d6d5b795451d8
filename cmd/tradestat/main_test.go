package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tradenet/internal/manifest"
)

// run is one manifest's host-side figures for writeTel.
type run struct {
	wallMs        float64
	events        uint64
	allocPerEvent float64
}

// writeTel writes one telemetry dir of manifests, one per named run.
func writeTel(t *testing.T, dir string, runs map[string]run) {
	t.Helper()
	var arts []*manifest.Artifact
	for name, r := range runs {
		a := &manifest.Artifact{
			Meta: manifest.Meta{Schema: manifest.Schema, Experiment: name, Seed: 1, Events: r.events},
			Host: &manifest.HostStats{
				WallNs:     int64(r.wallMs * 1e6),
				AllocBytes: uint64(r.allocPerEvent * float64(r.events)),
			},
		}
		arts = append(arts, a)
	}
	if _, err := manifest.WriteDir(dir, arts); err != nil {
		t.Fatal(err)
	}
}

// TestCompareFlagsInjectedRegression is the acceptance check: a run that
// takes 5% longer between two manifest sets must fail the default 2% gate,
// and the same sets must pass once the threshold is loosened past it. The
// gate is on wall time, not events/sec: a head that fires half the events
// in less time has a lower event rate and is not a regression.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base")
	head := filepath.Join(t.TempDir(), "head")
	writeTel(t, base, map[string]run{"designs": {100, 1_000_000, 100}, "wan": {200, 1_000_000, 50}})
	writeTel(t, head, map[string]run{"designs": {105, 1_000_000, 100}, "wan": {200, 1_000_000, 50}})

	var out strings.Builder
	err := runCompare(&out, base, head, 0.02, 0.10, "")
	if err == nil {
		t.Fatalf("a 5%% longer run passed the 2%% gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION designs-seed1: wall") {
		t.Errorf("regression not attributed to the right run:\n%s", out.String())
	}
	if strings.Contains(out.String(), "REGRESSION wan-seed1") {
		t.Errorf("unregressed run flagged:\n%s", out.String())
	}

	out.Reset()
	if err := runCompare(&out, base, head, 0.10, 0.10, ""); err != nil {
		t.Errorf("5%% slowdown failed the 10%% gate: %v\n%s", err, out.String())
	}

	// Fewer events for the same work, 20% faster: events/sec falls by 36%
	// and nothing fails. (Bytes per event double; that gate is loosened.)
	diet := filepath.Join(t.TempDir(), "diet")
	writeTel(t, diet, map[string]run{"designs": {80, 500_000, 200}, "wan": {200, 1_000_000, 50}})
	out.Reset()
	if err := runCompare(&out, base, diet, 0.02, 1.5, ""); err != nil {
		t.Errorf("a faster run with a lower event rate failed the gate: %v\n%s", err, out.String())
	}
}

// TestCompareGCGate: alloc/event growth past the GC threshold fails even
// when wall time holds.
func TestCompareGCGate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base")
	head := filepath.Join(t.TempDir(), "head")
	writeTel(t, base, map[string]run{"designs": {100, 1_000_000, 100}})
	writeTel(t, head, map[string]run{"designs": {100, 1_000_000, 120}})

	var out strings.Builder
	if err := runCompare(&out, base, head, 0.02, 0.10, ""); err == nil {
		t.Fatalf("20%% alloc/event growth passed the 10%% GC gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "GC-pressure gate") {
		t.Errorf("failure not attributed to the GC gate:\n%s", out.String())
	}
}

// TestCompareCSV: the -csv export carries one line per matched run.
func TestCompareCSV(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base")
	head := filepath.Join(t.TempDir(), "head")
	writeTel(t, base, map[string]run{"a": {1000, 1_000_000, 0}, "b": {500, 1_000_000, 0}})
	writeTel(t, head, map[string]run{"a": {1000, 1_000_000, 0}, "b": {500, 1_000_000, 0}})
	csv := filepath.Join(t.TempDir(), "out.csv")
	var out strings.Builder
	if err := runCompare(&out, base, head, 0.02, 0.10, csv); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "run,base_wall_ms,head_wall_ms,wall_ratio,base_events_per_sec") {
		t.Errorf("csv shape wrong:\n%s", data)
	}
}

// TestBenchGate: the -bench mode must parse `go test -bench` output, take
// best-of per benchmark (minimum ns/op), gate on it, and leave events/s as
// information.
func TestBenchGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseOut := `goos: linux
BenchmarkDesign1RoundTrip-8   3   12000000 ns/op   9900000 events/s   15.87 tick-to-trade-us
BenchmarkDesign1RoundTrip-8   3   12100000 ns/op  10000000 events/s   15.87 tick-to-trade-us
BenchmarkDesign3RoundTrip-8   3    9000000 ns/op   8000000 events/s
BenchmarkLadderRung-8      1000       1500 ns/op
PASS
`
	basePath := write("seed.out", baseOut)
	// Design 1 gets 6% slower in both samples; its event rate is left alone.
	headSlow := strings.ReplaceAll(baseOut, "12000000 ns/op", "12720000 ns/op")
	headSlow = strings.ReplaceAll(headSlow, "12100000 ns/op", "12830000 ns/op")
	slowPath := write("slow.out", headSlow)

	var out strings.Builder
	err := runBench(&out, basePath, slowPath, 0.02)
	if err == nil {
		t.Fatalf("6%% more ns/op passed the 2%% gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkDesign1RoundTrip") ||
		strings.Contains(out.String(), "REGRESSION BenchmarkDesign3RoundTrip") {
		t.Errorf("wrong benchmark flagged:\n%s", out.String())
	}

	// Design 3 fires half the events and runs 20% faster: its events/s falls
	// 37%, and that is not a regression.
	headDiet := strings.ReplaceAll(baseOut, "9000000 ns/op   8000000 events/s", "7200000 ns/op   5000000 events/s")
	out.Reset()
	if err := runBench(&out, basePath, write("diet.out", headDiet), 0.02); err != nil {
		t.Fatalf("a faster benchmark with a lower event rate failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "5000000") {
		t.Errorf("events/s not shown as information:\n%s", out.String())
	}

	// Identical outputs pass, best-of picks the minimum ns/op (and the
	// maximum events/s), and a benchmark with no events/s is still gated.
	out.Reset()
	if err := runBench(&out, basePath, basePath, 0.02); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	for _, want := range []string{"12000000", "10000000", "BenchmarkLadderRung"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("self-comparison output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "12100000") {
		t.Errorf("best-of kept the slower ns/op sample:\n%s", out.String())
	}
}

// TestCheckManifestsAndBenchJSON: -check accepts a valid telemetry dir and
// the repo's recorded BENCH_PR*.json files, and rejects corruption.
func TestCheckManifestsAndBenchJSON(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tel")
	writeTel(t, dir, map[string]run{"designs": {1000, 1_000_000, 0}})

	benchRefs, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(benchRefs) == 0 {
		t.Fatalf("no BENCH_PR*.json found at repo root: %v", err)
	}
	var out strings.Builder
	if err := runCheck(&out, append([]string{dir}, benchRefs...)); err != nil {
		t.Fatalf("valid inputs failed -check: %v\n%s", err, out.String())
	}

	// Corrupt manifest: schema mismatch must fail.
	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(bad, []byte(`{"record":"meta","schema":"tradenet.run.v9","experiment":"x","seed":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCheck(&out, []string{bad}); err == nil {
		t.Fatalf("wrong-schema manifest passed -check:\n%s", out.String())
	}

	// Corrupt bench reference: no description.
	badJSON := filepath.Join(t.TempDir(), "BENCH_PRX.json")
	if err := os.WriteFile(badJSON, []byte(`{"knob_off":{"BenchmarkX":{"before":{"v":1}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCheck(&out, []string{badJSON}); err == nil {
		t.Fatalf("description-less bench json passed -check:\n%s", out.String())
	}
}

// TestTrend: runs appear across revision columns with their rates.
func TestTrend(t *testing.T) {
	r1 := filepath.Join(t.TempDir(), "r1")
	r2 := filepath.Join(t.TempDir(), "r2")
	writeTel(t, r1, map[string]run{"designs": {1000, 1_000_000, 0}})
	writeTel(t, r2, map[string]run{"designs": {500, 1_000_000, 0}, "wan": {250, 750_000, 0}})

	csv := filepath.Join(t.TempDir(), "trend.csv")
	var out strings.Builder
	if err := runTrend(&out, []string{r1, r2}, csv); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "designs-seed1") || !strings.Contains(s, "wan-seed1") {
		t.Errorf("trend missing runs:\n%s", s)
	}
	if !strings.Contains(s, "500.00") || !strings.Contains(s, "3000000") {
		t.Errorf("trend lacks wall ms or events/sec:\n%s", s)
	}
	data, _ := os.ReadFile(csv)
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 3 {
		t.Errorf("trend csv shape wrong:\n%s", data)
	}
}
