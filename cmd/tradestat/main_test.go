package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tradenet/internal/manifest"
)

// TestCheckManifestsAndBenchJSON: tradestat accepts a valid telemetry dir
// and the repo's recorded BENCH_PR*.json files, and rejects corruption.
func TestCheckManifestsAndBenchJSON(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tel")
	art := &manifest.Artifact{Meta: manifest.Meta{Schema: manifest.Schema, Experiment: "designs", Seed: 1}}
	if _, err := manifest.WriteDir(dir, []*manifest.Artifact{art}); err != nil {
		t.Fatal(err)
	}

	benchRefs, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(benchRefs) == 0 {
		t.Fatalf("no BENCH_PR*.json found at repo root: %v", err)
	}
	var out strings.Builder
	if err := runCheck(&out, append([]string{dir}, benchRefs...)); err != nil {
		t.Fatalf("valid inputs failed the check: %v\n%s", err, out.String())
	}

	// Corrupt manifest: schema mismatch must fail.
	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(bad, []byte(`{"record":"meta","schema":"tradenet.run.v9","experiment":"x","seed":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCheck(&out, []string{bad}); err == nil {
		t.Fatalf("wrong-schema manifest passed the check:\n%s", out.String())
	}

	// Corrupt bench reference: no description.
	badJSON := filepath.Join(t.TempDir(), "BENCH_PRX.json")
	if err := os.WriteFile(badJSON, []byte(`{"knob_off":{"BenchmarkX":{"before":{"v":1}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCheck(&out, []string{badJSON}); err == nil {
		t.Fatalf("description-less bench json passed the check:\n%s", out.String())
	}
}
