// Package manifest defines the run-manifest artifact: every experiment run
// serialized as NDJSON under one stable, versioned schema, so the
// validator (cmd/tradestat), CI, and humans all read the same bytes the
// simulation produced.
//
// A manifest is one artifact per (experiment, design/cell, seed): a meta
// line naming the run and its knobs, then optional structured blocks —
// the registry dump, the sampler's time-resolved series, the scheduler
// profile, fault timelines, controller decision logs — and finally one
// wall-clock host-stats line. Every block except host stats is a pure
// function of the seed: a telemetry-armed run of the same seed reproduces
// the manifest byte-for-byte modulo the hoststats line, which is the
// deliberately nondeterministic block (wall time, GC/alloc telemetry) the
// perf trajectory is computed from.
//
// Schema versioning: Schema names the line format. Consumers reject
// unknown majors rather than guessing; additive fields bump nothing
// (decoders ignore unknown keys), field meaning or record-shape changes
// bump the version string.
package manifest

import (
	"fmt"
	"strings"

	"tradenet/internal/metrics"
	"tradenet/internal/sim"
)

// Schema is the manifest line-format version.
const Schema = "tradenet.run.v1"

// Artifact is one run's manifest in memory: what Encode writes and Decode
// reads. Field order here is encode order.
type Artifact struct {
	Meta      Meta
	Registry  *RegistryRecord
	Series    []SeriesRecord
	Profile   *ProfileRecord
	Faults    []LogRecord
	Decisions []LogRecord
	Host      *HostStats
}

// Meta identifies the run: which experiment, which cell of it, which seed,
// under which scenario knobs. Events carries the run's deterministic
// fired-event count so events/sec needs only the host block's wall time.
type Meta struct {
	Record     string        `json:"record"`
	Schema     string        `json:"schema"`
	Experiment string        `json:"experiment"`
	Design     string        `json:"design,omitempty"`
	Cell       string        `json:"cell,omitempty"`
	Seed       int64         `json:"seed"`
	Events     uint64        `json:"events,omitempty"`
	Scenario   *ScenarioInfo `json:"scenario,omitempty"`
}

// ScenarioInfo mirrors the core Scenario knobs without importing core
// (core imports this package). Durations are picoseconds, as everywhere.
type ScenarioInfo struct {
	Normalizers        int   `json:"normalizers"`
	Strategies         int   `json:"strategies"`
	Gateways           int   `json:"gateways"`
	FnLatencyPs        int64 `json:"fn_latency_ps"`
	InternalPartitions int   `json:"internal_partitions"`
	Symbols            int   `json:"symbols"`
	BurstMessages      int   `json:"burst_messages"`
	PullOnGap          bool  `json:"pull_on_gap,omitempty"`
	OEResilience       bool  `json:"oe_resilience,omitempty"`
	WANRedundancy      bool  `json:"wan_redundancy,omitempty"`
	ExchangeHA         bool  `json:"exchange_ha,omitempty"`
}

// RegistryEntry is one registry metric, structured: integers and gauges
// carry Value; histograms carry the same summary Dump prints.
type RegistryEntry struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value int64   `json:"value"`
	Count int64   `json:"count,omitempty"`
	Min   int64   `json:"min,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   int64   `json:"p50,omitempty"`
	P99   int64   `json:"p99,omitempty"`
	Max   int64   `json:"max,omitempty"`
}

// RegistryRecord is the full registry dump, entries in sorted name order.
type RegistryRecord struct {
	Record  string          `json:"record"`
	Entries []RegistryEntry `json:"entries"`
}

// CaptureRegistry snapshots every metric through the structural walker —
// no text parsing, byte-exactly reconstructible via DumpString.
func CaptureRegistry(r *metrics.Registry) *RegistryRecord {
	rec := &RegistryRecord{}
	r.Each(func(name string, kind metrics.Kind) {
		e := RegistryEntry{Name: name, Kind: kind.String()}
		if kind == metrics.KindHistogram {
			h, _ := r.Hist(name)
			e.Count = h.Count()
			if e.Count > 0 {
				e.Min, e.Mean, e.P50, e.P99, e.Max = h.Min(), h.Mean(), h.Median(), h.P99(), h.Max()
			}
		} else {
			e.Value, _ = r.Int(name)
		}
		rec.Entries = append(rec.Entries, e)
	})
	return rec
}

// DumpString re-renders the captured registry in Registry.Dump's exact
// format — the round-trip contract: for any registry r,
// CaptureRegistry(r).DumpString() == r.String(), before and after an
// encode/decode cycle.
func (r *RegistryRecord) DumpString() string {
	var b strings.Builder
	for _, e := range r.Entries {
		if e.Kind == "histogram" {
			if e.Count == 0 {
				fmt.Fprintf(&b, "%s count=0\n", e.Name)
			} else {
				fmt.Fprintf(&b, "%s count=%d min=%d mean=%.0f p50=%d p99=%d max=%d\n",
					e.Name, e.Count, e.Min, e.Mean, e.P50, e.P99, e.Max)
			}
			continue
		}
		fmt.Fprintf(&b, "%s %d\n", e.Name, e.Value)
	}
	return b.String()
}

// SeriesPoint is one sampled observation: virtual-time tick, value, delta
// since the previous tick, and histogram quantiles where applicable.
type SeriesPoint struct {
	T   int64 `json:"t"` // sim.Time, picoseconds
	V   int64 `json:"v"`
	D   int64 `json:"d"`
	P50 int64 `json:"p50,omitempty"`
	P99 int64 `json:"p99,omitempty"`
	Max int64 `json:"max,omitempty"`
}

// SeriesRecord is one metric's time-resolved series.
type SeriesRecord struct {
	Record     string        `json:"record"`
	Name       string        `json:"name"`
	Kind       string        `json:"kind"`
	IntervalPs int64         `json:"interval_ps"`
	Evicted    uint64        `json:"evicted,omitempty"`
	Points     []SeriesPoint `json:"points"`
}

// CaptureSeries snapshots every sampled series, in the sampler's
// deterministic (sorted-name) order.
func CaptureSeries(s *metrics.Sampler) []SeriesRecord {
	var out []SeriesRecord
	for _, ser := range s.Series() {
		rec := SeriesRecord{
			Name:       ser.Name,
			Kind:       ser.Kind.String(),
			IntervalPs: int64(s.Interval()),
			Evicted:    ser.Evicted(),
		}
		ser.Each(func(p metrics.SamplePoint) {
			rec.Points = append(rec.Points, SeriesPoint{
				T: int64(p.T), V: p.Value, D: p.Delta, P50: p.P50, P99: p.P99, Max: p.Max,
			})
		})
		out = append(out, rec)
	}
	return out
}

// ProfileRecord is the scheduler's self-profile at end of run.
type ProfileRecord struct {
	Record         string   `json:"record"`
	Fired          uint64   `json:"fired"`
	FiredClosure   uint64   `json:"fired_closure"`
	FiredArgs2     uint64   `json:"fired_args2"`
	FiredArgs3     uint64   `json:"fired_args3"`
	PlacedSingle   uint64   `json:"placed_single"`
	PlacedLevel    []uint64 `json:"placed_level"`
	PlacedOverflow uint64   `json:"placed_overflow"`
	Cascades       uint64   `json:"cascades"`
}

// CaptureProfile snapshots a scheduler profile.
func CaptureProfile(p sim.Profile) *ProfileRecord {
	rec := &ProfileRecord{
		Fired:          p.Fired,
		FiredClosure:   p.FiredClosure,
		FiredArgs2:     p.FiredArgs2,
		FiredArgs3:     p.FiredArgs3,
		PlacedSingle:   p.PlacedSingle,
		PlacedOverflow: p.PlacedOverflow,
		Cascades:       p.Cascades,
	}
	rec.PlacedLevel = append(rec.PlacedLevel, p.PlacedLevel[:]...)
	return rec
}

// LogRecord carries a named deterministic text log: a fault timeline
// ("fault") or a controller decision log ("decisions").
type LogRecord struct {
	Record string `json:"record"`
	Name   string `json:"name"`
	Log    string `json:"log"`
}

// Filename returns the artifact's canonical file name:
// <experiment>[-<design>][-<cell>]-seed<seed>.ndjson, slugged.
func (a *Artifact) Filename() string {
	parts := []string{slug(a.Meta.Experiment)}
	if a.Meta.Design != "" {
		parts = append(parts, slug(a.Meta.Design))
	}
	if a.Meta.Cell != "" {
		parts = append(parts, slug(a.Meta.Cell))
	}
	return fmt.Sprintf("%s-seed%d.ndjson", strings.Join(parts, "-"), a.Meta.Seed)
}

// slug lowercases and squeezes a free-form label into [a-z0-9-].
func slug(s string) string {
	var b strings.Builder
	dash := true // suppress leading dash
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// Validate checks structural invariants a well-formed artifact must hold;
// cmd/tradestat runs this over CI artifacts.
func (a *Artifact) Validate() error {
	if a.Meta.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", a.Meta.Schema, Schema)
	}
	if a.Meta.Experiment == "" {
		return fmt.Errorf("meta missing experiment")
	}
	if a.Registry != nil {
		prev := ""
		for _, e := range a.Registry.Entries {
			if e.Name <= prev {
				return fmt.Errorf("registry entries unsorted at %q", e.Name)
			}
			if e.Kind != "int" && e.Kind != "gauge" && e.Kind != "histogram" {
				return fmt.Errorf("registry entry %q has unknown kind %q", e.Name, e.Kind)
			}
			prev = e.Name
		}
	}
	for _, s := range a.Series {
		if s.IntervalPs <= 0 {
			return fmt.Errorf("series %q has non-positive interval", s.Name)
		}
		var prevT int64 = -1
		for _, p := range s.Points {
			if p.T <= prevT {
				return fmt.Errorf("series %q points not strictly increasing at t=%d", s.Name, p.T)
			}
			prevT = p.T
		}
	}
	if a.Host != nil && a.Host.WallNs < 0 {
		return fmt.Errorf("hoststats wall_ns negative")
	}
	return nil
}

// StripHost returns a copy of the artifact without the wall-clock block —
// the deterministic remainder two runs of one seed must agree on
// byte-for-byte.
func (a *Artifact) StripHost() *Artifact {
	cp := *a
	cp.Host = nil
	return &cp
}

// records enumerates the artifact's lines in encode order.
func (a *Artifact) records() []any {
	var out []any
	meta := a.Meta
	meta.Record, meta.Schema = "meta", Schema
	out = append(out, &meta)
	if a.Registry != nil {
		reg := *a.Registry
		reg.Record = "registry"
		out = append(out, &reg)
	}
	for i := range a.Series {
		s := a.Series[i]
		s.Record = "series"
		out = append(out, &s)
	}
	if a.Profile != nil {
		p := *a.Profile
		p.Record = "profile"
		out = append(out, &p)
	}
	for i := range a.Faults {
		l := a.Faults[i]
		l.Record = "fault"
		out = append(out, &l)
	}
	for i := range a.Decisions {
		l := a.Decisions[i]
		l.Record = "decisions"
		out = append(out, &l)
	}
	if a.Host != nil {
		h := *a.Host
		h.Record = "hoststats"
		out = append(out, &h)
	}
	return out
}
