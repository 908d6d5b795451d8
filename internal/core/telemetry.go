package core

import (
	"tradenet/internal/manifest"
	"tradenet/internal/metrics"
	"tradenet/internal/sim"
)

// Telemetry plane wiring: when Scenario.Telemetry is non-nil, every design
// builds a metrics registry (scheduler internals + exchange counters, plus
// whatever layer the experiment registers, e.g. wan.*) and a virtual-time
// sampler over it, and its measurement runs emit a manifest.Artifact. Nil
// (the default) builds none of it — the plant and its event schedule are
// byte-identical to the knob-less build, same contract as tracing and the
// resilience layers. An armed run adds only the sampler's own tick events
// at PrioReport: plant events keep their relative order, no RNG draws, so
// two armed runs of one seed reproduce the manifest byte-for-byte.

// TelemetrySpec opts a scenario into the telemetry plane.
type TelemetrySpec struct {
	// Interval between samples in virtual time (default 500 µs).
	Interval sim.Duration
	// Capacity bounds each metric's retained points (default 2048).
	Capacity int
}

// Telemetry is one plant's armed telemetry plane.
type Telemetry struct {
	Reg     *metrics.Registry
	Sampler *metrics.Sampler
}

// newTelemetry builds the plane, or nil when the scenario opts out. The
// registry starts with the scheduler's self-metrics; Plant.build adds the
// exchange and ha.* counters, experiments add their layer (wan.*, …).
func newTelemetry(sched *sim.Scheduler, spec *TelemetrySpec) *Telemetry {
	if spec == nil {
		return nil
	}
	reg := metrics.NewRegistry()
	metrics.RegisterScheduler(reg, sched)
	return &Telemetry{
		Reg:     reg,
		Sampler: metrics.NewSampler(sched, reg, metrics.SamplerConfig{Interval: spec.Interval, Capacity: spec.Capacity}),
	}
}

// Arm schedules sampling ticks over [from, until]. Nil-safe no-op.
func (t *Telemetry) Arm(from, until sim.Time) {
	if t == nil {
		return
	}
	t.Sampler.Arm(from, until)
}

// scenarioInfo mirrors the scenario knobs into the manifest's schema.
func scenarioInfo(sc Scenario) *manifest.ScenarioInfo {
	return &manifest.ScenarioInfo{
		Normalizers:        sc.Normalizers,
		Strategies:         sc.Strategies,
		Gateways:           sc.Gateways,
		FnLatencyPs:        int64(sc.FnLatency),
		InternalPartitions: sc.InternalPartitions,
		Symbols:            sc.Symbols,
		BurstMessages:      sc.BurstMessages,
		PullOnGap:          sc.PullOnGap,
		OEResilience:       sc.OEResilience,
		WANRedundancy:      sc.WANRedundancy,
		ExchangeHA:         sc.ExchangeHA,
	}
}

// Artifact assembles the run's manifest: meta (experiment/design/cell,
// seed, knobs, deterministic fired-event count), the registry dump, the
// sampled series, and the scheduler profile. Nil-safe — with a nil
// receiver the artifact still carries meta and profile, so every run
// emits something. Host stats are the caller's to attach (they are
// wall-clock, measured around the whole Run* call in cmd/tradenet).
func (t *Telemetry) Artifact(experiment, design, cell string, sc Scenario, sched *sim.Scheduler) *manifest.Artifact {
	a := &manifest.Artifact{
		Meta: manifest.Meta{
			Schema:     manifest.Schema,
			Experiment: experiment,
			Design:     design,
			Cell:       cell,
			Seed:       sc.Seed,
			Events:     sched.Fired(),
			Scenario:   scenarioInfo(sc),
		},
		Profile: manifest.CaptureProfile(sched.Profile()),
	}
	if t != nil {
		a.Registry = manifest.CaptureRegistry(t.Reg)
		a.Series = manifest.CaptureSeries(t.Sampler)
	}
	return a
}
