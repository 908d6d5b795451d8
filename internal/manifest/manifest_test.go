package manifest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tradenet/internal/metrics"
	"tradenet/internal/sim"
)

// buildRegistry populates a registry the way experiments do: counters,
// levels, histograms (including an empty one, which Dump prints specially).
func buildRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	r.RegisterInt("feed.published", func() int64 { return 12345 })
	r.RegisterInt("gw.inflight", func() int64 { return -3 })
	h := r.Histogram("rt.latency")
	for _, v := range []int64{10, 20, 30, 40, 1000} {
		h.Observe(v)
	}
	r.Histogram("rt.empty")
	return r
}

// TestRegistryDumpRoundTrip pins the satellite contract: a registry
// captured structurally, encoded to NDJSON, and decoded back must re-render
// Registry.Dump's text byte-for-byte.
func TestRegistryDumpRoundTrip(t *testing.T) {
	r := buildRegistry()
	rec := CaptureRegistry(r)
	if got, want := rec.DumpString(), r.String(); got != want {
		t.Fatalf("pre-encode DumpString mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	art := &Artifact{
		Meta:     Meta{Experiment: "designs", Design: "design1", Seed: 42},
		Registry: rec,
	}
	back, err := Decode(strings.NewReader(art.EncodeString()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := back.Registry.DumpString(), r.String(); got != want {
		t.Fatalf("post-decode DumpString mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestArtifactEncodeDecodeRoundTrip builds a fully populated artifact —
// registry, sampler series, profile, logs, host stats — and checks that
// decode(encode(a)) re-encodes to identical bytes, and that the decoded
// artifact validates.
func TestArtifactEncodeDecodeRoundTrip(t *testing.T) {
	sched := sim.NewScheduler(1)
	reg := buildRegistry()
	var ticks int64
	reg.RegisterInt("plant.ticks", func() int64 { return ticks })
	smp := metrics.NewSampler(sched, reg, metrics.SamplerConfig{Interval: 10 * sim.Microsecond})
	smp.Arm(0, sim.Time(30*sim.Microsecond))
	sched.At(sim.Time(5*sim.Microsecond), func() { ticks += 7 })
	sched.Run()

	art := &Artifact{
		Meta: Meta{
			Schema:     Schema,
			Experiment: "wanredundancy",
			Cell:       "static vs adaptive",
			Seed:       7,
			Events:     sched.Fired(),
			Scenario:   &ScenarioInfo{Normalizers: 4, Strategies: 8, Gateways: 2, Symbols: 64, WANRedundancy: true},
		},
		Registry: CaptureRegistry(reg),
		Series:   CaptureSeries(smp),
		Profile:  CaptureProfile(sched.Profile()),
		Faults:   []LogRecord{{Name: "rain", Log: "t=1ms path=mw1 degrade\nt=2ms path=mw1 restore\n"}},
		Decisions: []LogRecord{
			{Name: "policy", Log: "t=1ms failover fiber\n"},
		},
		Host: &HostStats{WallNs: 1_000_000, AllocBytes: 4096, Mallocs: 32, NumGC: 1, PauseNs: 100},
	}
	if err := art.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}

	first := art.EncodeString()
	back, err := Decode(strings.NewReader(first))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded artifact invalid: %v", err)
	}
	if second := back.EncodeString(); second != first {
		t.Fatalf("re-encode differs:\nfirst:\n%s\nsecond:\n%s", first, second)
	}

	if back.Meta.Events != sched.Fired() || back.Meta.Scenario == nil || !back.Meta.Scenario.WANRedundancy {
		t.Error("meta fields lost in round trip")
	}
	if len(back.Series) != len(art.Series) || back.Profile == nil || back.Host == nil {
		t.Error("blocks lost in round trip")
	}
	if h := *back.Host; h.WallNs != 1_000_000 || h.AllocBytes != 4096 || h.Mallocs != 32 || h.NumGC != 1 || h.PauseNs != 100 {
		t.Errorf("host block lost in round trip: %+v", h)
	}
}

// TestStripHost: stripping the host block must drop exactly the hoststats
// line, the one CI's byte-identical comparisons filter out of raw text.
func TestStripHost(t *testing.T) {
	art := &Artifact{
		Meta: Meta{Experiment: "e", Seed: 1},
		Host: &HostStats{WallNs: 123},
	}
	full := art.EncodeString()
	stripped := art.StripHost().EncodeString()
	if strings.Contains(stripped, "hoststats") {
		t.Fatal("StripHost left a hoststats line")
	}
	var kept []string
	for _, l := range strings.Split(full, "\n") {
		if !strings.HasPrefix(l, `{"record":"hoststats"`) {
			kept = append(kept, l)
		}
	}
	if got := strings.Join(kept, "\n"); got != stripped {
		t.Fatalf("full encoding minus the hoststats line != StripHost encoding:\n%s\nvs\n%s", got, stripped)
	}
	if art.Host == nil {
		t.Fatal("StripHost mutated the original")
	}
}

// TestValidateRejections covers the structural failures -check must catch.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		art  Artifact
		want string
	}{
		{"wrong schema", Artifact{Meta: Meta{Schema: "tradenet.run.v0", Experiment: "e"}}, "schema"},
		{"missing experiment", Artifact{Meta: Meta{Schema: Schema}}, "experiment"},
		{"unsorted registry", Artifact{
			Meta:     Meta{Schema: Schema, Experiment: "e"},
			Registry: &RegistryRecord{Entries: []RegistryEntry{{Name: "b", Kind: "int"}, {Name: "a", Kind: "int"}}},
		}, "unsorted"},
		{"unknown kind", Artifact{
			Meta:     Meta{Schema: Schema, Experiment: "e"},
			Registry: &RegistryRecord{Entries: []RegistryEntry{{Name: "a", Kind: "summary"}}},
		}, "unknown kind"},
		{"bad interval", Artifact{
			Meta:   Meta{Schema: Schema, Experiment: "e"},
			Series: []SeriesRecord{{Name: "s", Kind: "int"}},
		}, "interval"},
		{"non-increasing points", Artifact{
			Meta: Meta{Schema: Schema, Experiment: "e"},
			Series: []SeriesRecord{{Name: "s", Kind: "int", IntervalPs: 1,
				Points: []SeriesPoint{{T: 5}, {T: 5}}}},
		}, "strictly increasing"},
	}
	for _, tc := range cases {
		err := tc.art.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}

	ok := Artifact{Meta: Meta{Schema: Schema, Experiment: "e"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("minimal artifact rejected: %v", err)
	}
}

// TestDecodeErrors: malformed streams must fail with positioned errors;
// unknown additive record types must be skipped, not fatal.
func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeAll(strings.NewReader(`{"record":"registry","entries":[]}`)); err == nil || !strings.Contains(err.Error(), "before any meta") {
		t.Errorf("orphan record err = %v", err)
	}
	if _, err := DecodeAll(strings.NewReader("{not json\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("bad json err = %v", err)
	}
	arts, err := DecodeAll(strings.NewReader(
		`{"record":"meta","schema":"tradenet.run.v1","experiment":"e","seed":1}` + "\n" +
			`{"record":"future-block","x":1}` + "\n"))
	if err != nil || len(arts) != 1 {
		t.Errorf("unknown record type not skipped: %v (%d artifacts)", err, len(arts))
	}
}

// TestFilenameAndWriteDir covers slugging and the directory round trip,
// including the duplicate-name guard.
func TestFilenameAndWriteDir(t *testing.T) {
	a := &Artifact{Meta: Meta{Experiment: "WAN Redundancy", Cell: "static vs adaptive", Seed: 42}}
	if got, want := a.Filename(), "wan-redundancy-static-vs-adaptive-seed42.ndjson"; got != want {
		t.Fatalf("Filename = %q, want %q", got, want)
	}
	b := &Artifact{Meta: Meta{Experiment: "designs", Design: "design3", Seed: 1}}

	dir := filepath.Join(t.TempDir(), "telemetry")
	paths, err := WriteDir(dir, []*Artifact{a, b})
	if err != nil || len(paths) != 2 {
		t.Fatalf("WriteDir: %v (%d paths)", err, len(paths))
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s: %v", p, err)
		}
	}
	loaded, err := LoadDir(dir)
	if err != nil || len(loaded) != 2 {
		t.Fatalf("LoadDir: %v (%d artifacts)", err, len(loaded))
	}
	// LoadDir sorts by filename: designs-… before wan-redundancy-….
	if loaded[0].Meta.Experiment != "designs" || loaded[1].Meta.Experiment != "WAN Redundancy" {
		t.Errorf("LoadDir order: %q, %q", loaded[0].Meta.Experiment, loaded[1].Meta.Experiment)
	}

	if _, err := WriteDir(dir, []*Artifact{a, a}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names not rejected: %v", err)
	}
}
