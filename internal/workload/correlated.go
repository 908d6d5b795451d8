package workload

import (
	"math/rand"

	"tradenet/internal/sim"
)

// CorrelatedFeeds drives several feeds whose burst regimes are coupled:
// all feeds share one market-condition process, and each feed's arrival
// rate is its base rate times the shared condition's multiplier. This is
// §2's observation that "bursts across different feeds are often correlated
// because the underlying market conditions are related — e.g., the
// announcement of a new government regulation might cause the value of
// symbols in a sector to shift, in both equities and options markets."
//
// Correlated bursts are what make feed merging (§4.3) and WAN provisioning
// (§2) hard: peak loads arrive on every input at once, so statistical
// multiplexing helps far less than independent burst models predict.
type CorrelatedFeeds struct {
	// BaseRates are per-feed quiet rates in events/second.
	BaseRates []float64
	// BurstFactor multiplies every feed's rate while the shared condition
	// is in its burst state.
	BurstFactor float64
	// QuietDwell and BurstDwell are the shared condition's mean state
	// durations.
	QuietDwell, BurstDwell sim.Duration

	inBurst   bool
	dwellLeft sim.Duration
	primed    bool
}

// NewCorrelatedFeeds returns a coupled burst driver.
func NewCorrelatedFeeds(baseRates []float64, burstFactor float64, quietDwell, burstDwell sim.Duration) *CorrelatedFeeds {
	if len(baseRates) == 0 || burstFactor < 1 || quietDwell <= 0 || burstDwell <= 0 {
		panic("workload: invalid correlated-feeds configuration")
	}
	return &CorrelatedFeeds{
		BaseRates:   append([]float64(nil), baseRates...),
		BurstFactor: burstFactor,
		QuietDwell:  quietDwell,
		BurstDwell:  burstDwell,
	}
}

// InBurst reports the shared condition's current state.
func (c *CorrelatedFeeds) InBurst() bool { return c.inBurst }

// Generate schedules arrivals for every feed on sched from start to end;
// fn receives the feed index at each arrival. All feeds burst together.
func (c *CorrelatedFeeds) Generate(sched *sim.Scheduler, start, end sim.Time, fn func(feed int)) {
	// The shared condition advances on its own event chain.
	var flip func()
	flip = func() {
		c.inBurst = !c.inBurst
		dwell := c.QuietDwell
		if c.inBurst {
			dwell = c.BurstDwell
		}
		next := sched.Now().Add(expDur(sched.Rand(), dwell))
		if next.Before(end) {
			sched.At(next, flip)
		}
	}
	first := start.Add(expDur(sched.Rand(), c.QuietDwell))
	if first.Before(end) {
		sched.At(first, flip)
	}

	// Each feed draws inter-arrivals from its current effective rate.
	for i, base := range c.BaseRates {
		i, base := i, base
		var step func()
		rate := func() float64 {
			if c.inBurst {
				return base * c.BurstFactor
			}
			return base
		}
		draw := func(rng *rand.Rand) sim.Duration {
			d := sim.Duration(rng.ExpFloat64() / rate() * float64(sim.Second))
			if d < 1 {
				d = 1
			}
			return d
		}
		step = func() {
			fn(i)
			next := sched.Now().Add(draw(sched.Rand()))
			if next.Before(end) {
				sched.At(next, step)
			}
		}
		firstAt := start.Add(draw(sched.Rand()))
		if firstAt.Before(end) {
			sched.At(firstAt, step)
		}
	}
}
