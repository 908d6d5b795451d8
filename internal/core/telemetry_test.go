package core

import (
	"reflect"
	"strings"
	"testing"

	"tradenet/internal/device"
	"tradenet/internal/sim"
)

// telemetryScenario: the small plant with the sampler armed at a coarse
// interval so tests stay fast.
func telemetryScenario() Scenario {
	sc := SmallScenario()
	sc.Telemetry = &TelemetrySpec{Interval: 200 * sim.Microsecond, Capacity: 256}
	return sc
}

// TestTelemetryNonPerturbation is the satellite contract: arming the
// sampler must not perturb the plant. The armed run's measurement — every
// latency sample, burst instant, and publish count — must be byte-identical
// to the unarmed run's, and the fired-event counts must differ by exactly
// the sampler's own ticks.
func TestTelemetryNonPerturbation(t *testing.T) {
	sc := SmallScenario()
	off := NewDesign1(sc, device.DefaultCommodityConfig())
	rtOff := off.MeasureRoundTrip(4)
	firedOff := off.Sched.Fired()
	pubOff := off.Ex.PublishedMsgs

	on := NewDesign1(telemetryScenario(), device.DefaultCommodityConfig())
	rtOn := on.MeasureRoundTrip(4)
	firedOn := on.Sched.Fired()

	if !reflect.DeepEqual(rtOff, rtOn) {
		t.Errorf("armed run perturbed the measurement:\noff: %+v\non:  %+v", rtOff, rtOn)
	}
	if on.Ex.PublishedMsgs != pubOff {
		t.Errorf("armed run published %d msgs, unarmed %d", on.Ex.PublishedMsgs, pubOff)
	}
	ticks := on.Tel.Sampler.Ticks()
	if ticks == 0 {
		t.Fatal("armed sampler never ticked")
	}
	if firedOn-ticks != firedOff {
		t.Errorf("fired %d armed, %d unarmed, %d ticks: armed run added non-tick events",
			firedOn, firedOff, ticks)
	}
}

// TestTelemetryArtifactDeterminism: two armed runs of one seed must emit
// byte-identical manifests (no host block is attached in core, so the whole
// encoding must match), and the artifacts must validate and carry the
// expected blocks.
func TestTelemetryArtifactDeterminism(t *testing.T) {
	run := func() DesignComparison { return RunDesignComparison(telemetryScenario(), 4) }
	a, b := run(), run()
	if len(a.Artifacts) != 3 {
		t.Fatalf("got %d artifacts, want 3 (one per design)", len(a.Artifacts))
	}
	for i := range a.Artifacts {
		art := a.Artifacts[i]
		if err := art.Validate(); err != nil {
			t.Fatalf("artifact %d invalid: %v", i, err)
		}
		first, second := art.EncodeString(), b.Artifacts[i].EncodeString()
		if first != second {
			t.Errorf("artifact %d (%s) not deterministic across runs", i, art.Meta.Design)
		}
		if art.Meta.Experiment != "designs" || art.Meta.Events == 0 || art.Registry == nil || art.Profile == nil {
			t.Errorf("artifact %d missing blocks: %+v", i, art.Meta)
		}
		if s := findSeries(art.EncodeString(), "sched.fired"); !s {
			t.Errorf("artifact %d has no sched.fired series", i)
		}
		if s := findSeries(art.EncodeString(), "exchange.published_msgs"); !s {
			t.Errorf("artifact %d has no exchange series", i)
		}
	}
	if a.Artifacts[0].Filename() != "designs-design1-seed1.ndjson" {
		t.Errorf("filename = %q", a.Artifacts[0].Filename())
	}
}

func findSeries(ndjson, name string) bool {
	return strings.Contains(ndjson, `{"record":"series","name":"`+name+`"`)
}

// TestTelemetryOffByDefault: the default scenario builds no telemetry
// plane and emits no artifacts.
func TestTelemetryOffByDefault(t *testing.T) {
	sc := SmallScenario()
	d := NewDesign1(sc, device.DefaultCommodityConfig())
	if d.Tel != nil {
		t.Fatal("telemetry built without the knob")
	}
	out := RunDesignComparison(sc, 2)
	if len(out.Artifacts) != 0 {
		t.Fatalf("unarmed comparison emitted %d artifacts", len(out.Artifacts))
	}
}

// TestWANRedundancyArtifact: an armed E22 cell's manifest carries
// time-resolved wan.* series plus the fault timeline and decision log as
// structured records.
func TestWANRedundancyArtifact(t *testing.T) {
	rep := RunWANRedundancy(telemetryScenario(), []int64{3})
	res := rep.Runs[0].Matrix[3]
	if res.Artifact == nil {
		t.Fatal("armed E22 cell emitted no artifact")
	}
	art := rep.Manifests()[3]
	if art != res.Artifact {
		t.Fatal("the cell's manifest is not its telemetry artifact")
	}
	if err := art.Validate(); err != nil {
		t.Fatalf("artifact invalid: %v", err)
	}
	enc := art.EncodeString()
	if !findSeries(enc, "wan.rx.delivered") || !findSeries(enc, "wan.ctl.switches") {
		t.Error("wan.* series missing from artifact")
	}
	if len(art.Faults) != 1 || art.Faults[0].Log != res.FaultLog || art.Faults[0].Log == "" {
		t.Error("fault timeline not attached")
	}
	if len(art.Decisions) != 1 || art.Decisions[0].Log != res.DecisionLog {
		t.Error("decision log not attached")
	}
	if art.Meta.Cell != "squall adaptive" {
		t.Errorf("cell = %q", art.Meta.Cell)
	}
}
