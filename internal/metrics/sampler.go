package metrics

import (
	"fmt"

	"tradenet/internal/sim"
)

// Sampler turns the registry's end-of-run totals into time-resolved series:
// on deterministic virtual-time ticks it scans every registered metric and
// appends one point per metric to a ring-buffered series — counter deltas
// for int kinds, count/quantile snapshots for histograms. The paper's
// comparisons are about *when* things happen (tick-to-trade races, fairness
// while a path is degraded); the sampler is what lets an experiment report
// `wan.*` loss against the rain timeline instead of one total at the end.
//
// Determinism contract (see DESIGN.md "Telemetry plane"):
//
//   - Sampling is opt-in. An un-armed sampler schedules nothing and the
//     plant never touches one on the hot path, so sampler-off runs are
//     byte-identical to a build without the sampler compiled in.
//   - Ticks run at sim.PrioReport, after all same-instant deliveries and
//     drains, and read metrics without mutating simulation state or
//     drawing from the scheduler's RNG. Relative order of plant events is
//     therefore unchanged; the only observable difference of an armed
//     sampler is its own tick events in Scheduler.Fired (one per point in
//     each series — the non-perturbation test accounts for them to the
//     event).
//   - A tick re-arms itself only while now+Interval <= the Arm deadline,
//     so runs driven by Scheduler.Run() (queue-empty termination) still
//     terminate.
type Sampler struct {
	sched  *sim.Scheduler
	reg    *Registry
	cfg    SamplerConfig
	series []*SampleSeries
	last   []int64 // previous sampled value per series, for deltas
	tickFn func()
	until  sim.Time
	armed  bool
}

// SamplerConfig sizes a sampler.
type SamplerConfig struct {
	// Interval is the virtual-time tick spacing (default 500 µs — the same
	// cadence as the WAN controller's stats windows).
	Interval sim.Duration
	// Capacity is the per-metric ring capacity: a full ring evicts its
	// oldest point and counts it, so memory stays bounded on long runs.
	// Default 2048 points.
	Capacity int
}

func (c SamplerConfig) withDefaults() SamplerConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * sim.Microsecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 2048
	}
	return c
}

// SamplePoint is one metric's observation at one virtual-time tick.
type SamplePoint struct {
	T sim.Time
	// Value is the current reading: the int/gauge value, or a histogram's
	// observation count.
	Value int64
	// Delta is Value minus the previous tick's reading (the first tick
	// measures from the Arm instant). For monotonic counters this is the
	// per-interval rate; gauges may go negative.
	Delta int64
	// P50/P99/Max snapshot a histogram's distribution at the tick (zero
	// for int kinds and for histograms that are still empty).
	P50, P99, Max int64
}

// SampleSeries is one metric's ring-buffered time series, oldest first.
type SampleSeries struct {
	Name string
	Kind Kind

	buf     []SamplePoint
	head    int // index of the oldest point
	n       int
	evicted uint64
}

// Len returns the number of retained points.
func (s *SampleSeries) Len() int { return s.n }

// Evicted returns how many points rolled out of a full ring.
func (s *SampleSeries) Evicted() uint64 { return s.evicted }

// At returns retained point i, 0 being the oldest.
func (s *SampleSeries) At(i int) SamplePoint {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("metrics: sample index %d out of range [0,%d)", i, s.n))
	}
	return s.buf[(s.head+i)%len(s.buf)]
}

// Each walks the retained points oldest to newest.
func (s *SampleSeries) Each(fn func(SamplePoint)) {
	for i := 0; i < s.n; i++ {
		fn(s.At(i))
	}
}

func (s *SampleSeries) push(p SamplePoint) {
	if s.n == len(s.buf) {
		s.buf[s.head] = p
		s.head = (s.head + 1) % len(s.buf)
		s.evicted++
		return
	}
	s.buf[(s.head+s.n)%len(s.buf)] = p
	s.n++
}

// NewSampler builds a sampler over reg. It schedules nothing until Arm.
func NewSampler(sched *sim.Scheduler, reg *Registry, cfg SamplerConfig) *Sampler {
	if sched == nil || reg == nil {
		panic("metrics: NewSampler needs a scheduler and a registry")
	}
	s := &Sampler{sched: sched, reg: reg, cfg: cfg.withDefaults()}
	s.tickFn = s.tick
	return s
}

// Interval returns the configured tick spacing.
func (s *Sampler) Interval() sim.Duration { return s.cfg.Interval }

// Series returns every sampled series in registry (sorted-name) order.
// Empty until Arm snapshots the registry.
func (s *Sampler) Series() []*SampleSeries {
	if s == nil {
		return nil
	}
	return s.series
}

// Arm snapshots the registry's current metric set as the sampled set
// (metrics registered later are not picked up), baselines every delta at
// the current readings, and schedules ticks every Interval from
// from+Interval through until (inclusive). Arm is nil-safe so call sites
// follow the tracing idiom: a plant without telemetry never branches.
func (s *Sampler) Arm(from, until sim.Time) {
	if s == nil {
		return
	}
	if s.armed {
		panic("metrics: sampler armed twice")
	}
	s.armed = true
	s.until = until
	s.reg.Each(func(name string, kind Kind) {
		ser := &SampleSeries{Name: name, Kind: kind, buf: make([]SamplePoint, s.cfg.Capacity)}
		s.series = append(s.series, ser)
		s.last = append(s.last, s.read(name, kind))
	})
	first := from.Add(s.cfg.Interval)
	if first <= until {
		s.sched.AtPrio(first, sim.PrioReport, s.tickFn)
	}
}

// read returns the delta-tracked reading for one metric: the int value, or
// a histogram's observation count.
func (s *Sampler) read(name string, kind Kind) int64 {
	if kind == KindHistogram {
		h, _ := s.reg.Hist(name)
		return h.Count()
	}
	v, _ := s.reg.Int(name)
	return v
}

// tick samples every metric once and re-arms while inside the deadline.
func (s *Sampler) tick() {
	now := s.sched.Now()
	for i, ser := range s.series {
		p := SamplePoint{T: now}
		if ser.Kind == KindHistogram {
			h, _ := s.reg.Hist(ser.Name)
			p.Value = h.Count()
			if p.Value > 0 {
				p.P50, p.P99, p.Max = h.Median(), h.P99(), h.Max()
			}
		} else {
			p.Value, _ = s.reg.Int(ser.Name)
		}
		p.Delta = p.Value - s.last[i]
		s.last[i] = p.Value
		ser.push(p)
	}
	if next := now.Add(s.cfg.Interval); next <= s.until {
		s.sched.AtPrio(next, sim.PrioReport, s.tickFn)
	}
}

// RegisterScheduler exposes a scheduler's self-profile through the
// registry: fired totals by handler kind, wheel placement counters, the
// pending-event queue depth, and per-level slot occupancy. Paired with a
// Sampler this yields the scheduler-occupancy and queue-depth time series
// the mechanical-sympathy work reads to see where fired-event time goes
// *during* a run.
func RegisterScheduler(r *Registry, s *sim.Scheduler) {
	r.RegisterInt("sched.fired", func() int64 { return int64(s.Fired()) })
	r.RegisterInt("sched.fired.closure", func() int64 { return int64(s.Profile().FiredClosure) })
	r.RegisterInt("sched.fired.args2", func() int64 { return int64(s.Profile().FiredArgs2) })
	r.RegisterInt("sched.fired.args3", func() int64 { return int64(s.Profile().FiredArgs3) })
	r.RegisterInt("sched.pending", func() int64 { return int64(s.Pending()) })
	r.RegisterInt("sched.placed.single", func() int64 { return int64(s.Profile().PlacedSingle) })
	r.RegisterInt("sched.placed.overflow", func() int64 { return int64(s.Profile().PlacedOverflow) })
	r.RegisterInt("sched.cascades", func() int64 { return int64(s.Profile().Cascades) })
	for lvl := 0; lvl < sim.WheelLevels; lvl++ {
		lvl := lvl
		r.RegisterInt(fmt.Sprintf("sched.placed.l%d", lvl),
			func() int64 { return int64(s.Profile().PlacedLevel[lvl]) })
		r.RegisterInt(fmt.Sprintf("sched.occupancy.l%d", lvl),
			func() int64 { return int64(s.Occupancy()[lvl]) })
	}
}
