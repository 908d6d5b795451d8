package netsim

import "tradenet/internal/sim"

// CoreSet models a server's CPU cores as busy-until horizons — the resource
// behind the paper's Fig. 1(d): production trading servers dedicate
// "separate server cores ... for the operating system and for strategies
// and other functions", because a latency-critical event that lands behind
// a housekeeping chunk on a shared core inherits its entire remaining
// runtime.
type CoreSet struct {
	sched *sim.Scheduler
	busy  []sim.Time
	// work accumulates total busy time per core for utilization reporting.
	work []sim.Duration
}

// NewCoreSet returns n idle cores.
func NewCoreSet(sched *sim.Scheduler, n int) *CoreSet {
	if n <= 0 {
		panic("netsim: core set needs at least one core")
	}
	return &CoreSet{sched: sched, busy: make([]sim.Time, n), work: make([]sim.Duration, n)}
}

// Cores returns the core count.
func (c *CoreSet) Cores() int { return len(c.busy) }

// Submit queues work of the given CPU cost on the least-loaded core and
// invokes fn when it completes. It returns the core chosen and the
// completion time.
//
//simlint:allow deadcode: ROADMAP item 8 makes each software hop a server on a CoreSet
func (c *CoreSet) Submit(cost sim.Duration, fn func()) (core int, done sim.Time) {
	core = 0
	for i := 1; i < len(c.busy); i++ {
		if c.busy[i] < c.busy[core] {
			core = i
		}
	}
	return core, c.SubmitTo(core, cost, fn)
}

// SubmitTo queues work on a specific core (pinning) and returns the
// completion time.
func (c *CoreSet) SubmitTo(core int, cost sim.Duration, fn func()) sim.Time {
	now := c.sched.Now()
	start := c.busy[core]
	if start < now {
		start = now
	}
	done := start.Add(cost)
	c.busy[core] = done
	c.work[core] += cost
	if fn != nil {
		c.sched.At(done, fn)
	}
	return done
}

// QueueDelay returns how long newly submitted work would wait before
// starting on the given core.
//
//simlint:allow deadcode: ROADMAP item 8 makes each software hop a server on a CoreSet
func (c *CoreSet) QueueDelay(core int) sim.Duration {
	now := c.sched.Now()
	if c.busy[core] <= now {
		return 0
	}
	return c.busy[core].Sub(now)
}

// Utilization returns core i's busy fraction over [0, horizon].
//
//simlint:allow deadcode: ROADMAP item 8 makes each software hop a server on a CoreSet
func (c *CoreSet) Utilization(core int, horizon sim.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(c.work[core]) / float64(horizon)
}
