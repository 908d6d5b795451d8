package redundancy

import (
	"fmt"
	"strings"

	"tradenet/internal/sim"
)

// StatsSource supplies cumulative transmit/loss counters for the path the
// controller is steering. Samples are taken on virtual-time ticks; the
// controller works on per-window deltas.
type StatsSource interface {
	Sample() LossSample
}

// LossSample is a cumulative counter pair: frames committed to the wire
// and frames lost in flight.
type LossSample struct {
	Tx, Lost uint64
}

// CounterSource adapts any pair of cumulative uint64 counters — e.g. a
// netsim.Port's TxFrames/Lost, or a normalizer's MsgsIn/MsgLost — into a
// StatsSource. The pointers are read on the simulation goroutine only.
type CounterSource struct {
	Tx, Lost *uint64
}

// Sample reads the counters.
func (c CounterSource) Sample() LossSample { return LossSample{Tx: *c.Tx, Lost: *c.Lost} }

// SumSource aggregates several sources (e.g. both directions of a
// circuit, or both paths of a dual-path WAN).
type SumSource []StatsSource

// Sample sums the member samples.
func (s SumSource) Sample() LossSample {
	var out LossSample
	for _, src := range s {
		m := src.Sample()
		out.Tx += m.Tx
		out.Lost += m.Lost
	}
	return out
}

// ControllerConfig tunes the closed loop. The defaults react within ~1 ms
// of a fade onset (two 500 µs windows) and decay within ~2 ms of clear
// air — fast attack, slow decay, the classic congestion-control shape.
type ControllerConfig struct {
	// Window is the sampling period.
	Window sim.Duration
	// MinFrames skips judgement on windows with fewer transmitted
	// frames — a quiet window says nothing about the medium. Streaks
	// freeze rather than reset across skipped windows.
	MinFrames uint64
	// EnterFEC and EnterDup are window loss ratios at or above which
	// ParityFEC (resp. Duplicate) is the desired policy. EnterDup should
	// sit near the loss rate where two-losses-per-parity-group stops
	// being rare — beyond it, FEC's groups keep exhausting and replay
	// returns through the back door.
	EnterFEC, EnterDup float64
	// EnterAfter is how many consecutive windows must desire a higher
	// policy before the controller jumps (directly) to it.
	EnterAfter int
	// ExitAfter is how many consecutive windows must desire a lower
	// policy before the controller steps down (one level at a time).
	ExitAfter int
}

// DefaultControllerConfig: 500 µs windows, ≥8 frames to judge, FEC at
// ≥1% loss, Duplicate at ≥12% loss, escalate after 2 windows, decay
// after 4.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		Window:     500 * sim.Microsecond,
		MinFrames:  8,
		EnterFEC:   0.01,
		EnterDup:   0.12,
		EnterAfter: 2,
		ExitAfter:  4,
	}
}

// PolicyDecision records one policy switch, for the experiment report and
// for regression-testing convergence.
type PolicyDecision struct {
	At       sim.Time
	From, To Policy
	Ratio    float64 // the window loss ratio that tipped the streak
	Window   uint64  // index of the sampling window that decided
}

// Controller is the closed loop: every Window of virtual time it samples
// the StatsSource, classifies the window's loss ratio against the policy
// ladder ReplayOnly < ParityFEC < Duplicate, and applies hysteresis-gated
// switches to its adapters (sender and receiver). All inputs are
// virtual-time simulation state; with a fixed seed the decision sequence
// is byte-reproducible.
type Controller struct {
	// Decisions is the switch log, in decision order.
	Decisions []PolicyDecision

	// Cumulative counters, suitable for metrics.Registry registration.
	Switches       uint64
	WindowsSampled uint64
	WindowsSkipped uint64

	sched    *sim.Scheduler
	cfg      ControllerConfig
	src      StatsSource
	adapters []Adapter

	policy   Policy
	last     LossSample
	up, down int
}

// NewController builds a controller starting in ReplayOnly. It does not
// tick until Start.
func NewController(sched *sim.Scheduler, cfg ControllerConfig, src StatsSource, adapters ...Adapter) *Controller {
	if cfg.Window <= 0 || cfg.EnterAfter <= 0 || cfg.ExitAfter <= 0 {
		panic("redundancy: controller config must have positive window and streaks")
	}
	return &Controller{sched: sched, cfg: cfg, src: src, adapters: adapters}
}

// Policy returns the currently applied policy.
func (c *Controller) Policy() Policy { return c.policy }

// Start baselines the counters now and schedules the first sampling tick
// one window out, at control priority (management-plane actions order
// before same-tick deliveries, like real control planes that run beside
// the data path).
func (c *Controller) Start() {
	c.last = c.src.Sample()
	c.sched.AfterArgs(c.cfg.Window, sim.PrioControl, controllerTick, c, nil)
}

// controllerTick is the closure-free self-rearming tick. The loop never
// stops: run a plant with a ticking controller with RunUntil.
func controllerTick(a, _ any) {
	c := a.(*Controller)
	c.evaluate()
	c.sched.AfterArgs(c.cfg.Window, sim.PrioControl, controllerTick, c, nil)
}

// evaluate judges one window.
func (c *Controller) evaluate() {
	s := c.src.Sample()
	dTx := s.Tx - c.last.Tx
	dLost := s.Lost - c.last.Lost
	c.last = s
	c.WindowsSampled++
	if dTx < c.cfg.MinFrames {
		c.WindowsSkipped++
		return
	}
	ratio := float64(dLost) / float64(dTx)
	desired := ReplayOnly
	switch {
	case ratio >= c.cfg.EnterDup:
		desired = Duplicate
	case ratio >= c.cfg.EnterFEC:
		desired = ParityFEC
	}
	switch {
	case desired > c.policy:
		c.up++
		c.down = 0
		if c.up >= c.cfg.EnterAfter {
			c.switchTo(desired, ratio) // fast attack: jump straight there
		}
	case desired < c.policy:
		c.down++
		c.up = 0
		if c.down >= c.cfg.ExitAfter {
			c.switchTo(c.policy-1, ratio) // slow decay: one rung at a time
		}
	default:
		c.up, c.down = 0, 0
	}
}

// switchTo applies a policy to every adapter and logs the decision.
func (c *Controller) switchTo(p Policy, ratio float64) {
	c.Decisions = append(c.Decisions, PolicyDecision{
		At: c.sched.Now(), From: c.policy, To: p, Ratio: ratio, Window: c.WindowsSampled,
	})
	c.policy = p
	c.Switches++
	c.up, c.down = 0, 0
	for _, a := range c.adapters {
		a.Apply(p)
	}
}

// LogString renders the decision log, one line per switch — the E-series
// reports embed it so a policy trajectory change shows up as a byte diff.
func (c *Controller) LogString() string {
	if len(c.Decisions) == 0 {
		return "  (no policy switches)\n"
	}
	var b strings.Builder
	for _, d := range c.Decisions {
		fmt.Fprintf(&b, "  %8.1fus  %s -> %s  (window %d loss %.3f)\n",
			float64(d.At)/float64(sim.Microsecond), d.From, d.To, d.Window, d.Ratio)
	}
	return b.String()
}
