// Package fault injects deterministic failures into a running simulation.
//
// A Plan is a timeline of typed fault events — link outages, loss bursts
// that temporarily raise a link's error rate, whole-switch failures —
// scheduled on the simulation clock. Every event fires in virtual time at
// control-plane priority, so a faulted run remains a pure function of its
// seed: the same scenario with the same seed renders byte-identical
// metrics, faults and all. Plans are either scripted (an experiment names
// the exact instants) or generated from the scheduler's seeded RNG
// (Randomize), and every event that fires is appended to an event log the
// metrics report can render.
//
// The paper's designs live or die on exactly this behaviour: §2's
// microwave circuits rain-fade, sequenced feeds ship as A/B copies because
// links drop, and the leaf-spine versus L1-switch comparison changes shape
// once a spine can die mid-burst (the leaf-spine reroutes after a
// control-plane delay; the L1 fabric has no reroute at all — a dark path
// stays dark until repair).
package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"tradenet/internal/netsim"
	"tradenet/internal/sim"
)

// Kind is a fault event type.
type Kind uint8

// Fault event kinds.
const (
	// LinkDown fails both directions of a link; frames in flight are lost,
	// sends blackhole, queued frames wait for recovery.
	LinkDown Kind = iota
	// LinkUp restores a failed link; paused drains resume.
	LinkUp
	// LossBurstStart raises a link's loss probability for a window — a rain
	// fade, a flapping optic, a dirty connector.
	LossBurstStart
	// LossBurstEnd restores the loss probability the link had before the
	// burst.
	LossBurstEnd
	// SwitchFail kills a whole device: every attached link goes down and
	// its queued frames die with the packet memory.
	SwitchFail
	// SwitchRecover restores a failed device; reconvergence (if the
	// topology has a control plane) begins from here.
	SwitchRecover
	// SessionDrop kills an order-entry session endpoint: its transport dies
	// instantly (a process crash, a yanked cable on the OE path) and the
	// surviving peer only learns through liveness. Recovery — reconnect,
	// replay, cancel-on-disconnect — is the session layer's job, so the
	// event has no paired "recover".
	SessionDrop
	// RainStart begins a rain-fade window on a weather-sensitive WAN
	// circuit (§2: microwave loses frames in rain; fiber ignores weather).
	RainStart
	// RainEnd clears the rain.
	RainEnd
	// ProcessFail kills a whole host process: every transport it owns dies
	// instantly, timers stop, and in-memory state freezes. Unlike
	// SessionDrop (one session) or SwitchFail (a network device), the
	// granularity is the process — the exchange-crash event the HA layer
	// promotes a standby on. There is no paired recover: the HA design
	// promotes the standby instead of resurrecting a primary.
	ProcessFail
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "LinkDown"
	case LinkUp:
		return "LinkUp"
	case LossBurstStart:
		return "LossBurstStart"
	case LossBurstEnd:
		return "LossBurstEnd"
	case SwitchFail:
		return "SwitchFail"
	case SwitchRecover:
		return "SwitchRecover"
	case SessionDrop:
		return "SessionDrop"
	case RainStart:
		return "RainStart"
	case RainEnd:
		return "RainEnd"
	case ProcessFail:
		return "ProcessFail"
	}
	return "Unknown"
}

// Switch is a device (or a topology's view of one, e.g. a leaf-spine
// fabric's spine) that can fail and recover as a unit. Implementations own
// the consequences: taking links down, purging queues, and triggering
// whatever reconvergence their control plane provides.
type Switch interface {
	// FaultName identifies the device in the event log.
	FaultName() string
	// Fail takes the device out of service.
	Fail()
	// Recover returns the device to service.
	Recover()
}

// SessionDropper is an endpoint owning an order-entry session that a plan
// can kill as a unit (a gateway, or a strategy holding its own exchange
// session). The implementation owns the consequences: killing the
// transport, tearing down session state, and any scheduled reconnect.
type SessionDropper interface {
	// FaultName identifies the endpoint in the event log.
	FaultName() string
	// DropSession kills the endpoint's order-entry session.
	DropSession()
}

// Record is one fault event that fired, in firing order.
type Record struct {
	At     sim.Time
	Kind   Kind
	Target string
}

// String renders one log line.
func (r Record) String() string {
	return fmt.Sprintf("%-12v %-14s %s", r.At, r.Kind, r.Target)
}

// Plan is a scheduler-driven fault timeline. Add faults before (or during)
// the run; each fires at its instant and is recorded in Log.
type Plan struct {
	sched *sim.Scheduler

	// Log holds every fault event that has fired, in firing order. Reading
	// it mid-run is safe; it grows as virtual time passes the scheduled
	// instants.
	Log []Record

	// bursts numbers scheduled loss bursts, giving each its own named
	// loss source on the affected ports.
	bursts int
}

// NewPlan creates an empty plan bound to the scheduler.
func NewPlan(sched *sim.Scheduler) *Plan {
	return &Plan{sched: sched}
}

// record appends a fired event to the log.
func (p *Plan) record(k Kind, target string) {
	p.Log = append(p.Log, Record{At: p.sched.Now(), Kind: k, Target: target})
}

// linkName names a link by its two endpoints.
func linkName(port *netsim.Port) string {
	if peer := port.Peer(); peer != nil {
		return port.Name + "<->" + peer.Name
	}
	return port.Name
}

// LinkOutage fails the link at port (both directions) at instant at and
// restores it d later. Frames in flight at the failure instant are lost;
// sends during the outage blackhole; queued frames drain on recovery.
func (p *Plan) LinkOutage(port *netsim.Port, at sim.Time, d sim.Duration) {
	if !port.Connected() {
		panic("fault: LinkOutage on unconnected port " + port.Name)
	}
	peer := port.Peer()
	p.sched.AtPrio(at, sim.PrioControl, func() {
		port.SetUp(false)
		peer.SetUp(false)
		p.record(LinkDown, linkName(port))
	})
	p.sched.AtPrio(at.Add(d), sim.PrioControl, func() {
		port.SetUp(true)
		peer.SetUp(true)
		p.record(LinkUp, linkName(port))
	})
}

// LossBurst raises the link's per-frame loss probability to at least prob
// (both directions) for the window [at, at+d) — a flapping optic, a dirty
// connector — scheduled rather than drawn, so the window itself is
// reproducible. Each burst is its own named loss source on the ports, so
// overlapping bursts (or a burst overlapping rain) compose as the max of
// the active windows and each end-event removes only its own
// contribution; the old capture-and-restore scheme restored a stale value
// whenever windows overlapped.
func (p *Plan) LossBurst(port *netsim.Port, at sim.Time, d sim.Duration, prob float64) {
	if !port.Connected() {
		panic("fault: LossBurst on unconnected port " + port.Name)
	}
	peer := port.Peer()
	p.bursts++
	name := fmt.Sprintf("burst#%d", p.bursts)
	p.sched.AtPrio(at, sim.PrioControl, func() {
		port.SetLossSource(name, prob)
		peer.SetLossSource(name, prob)
		p.record(LossBurstStart, linkName(port))
	})
	p.sched.AtPrio(at.Add(d), sim.PrioControl, func() {
		port.SetLossSource(name, 0)
		peer.SetLossSource(name, 0)
		p.record(LossBurstEnd, linkName(port))
	})
}

// Rainer is a weather-sensitive WAN circuit a plan can rain on —
// colo.Circuit implements it. SetRaining must be refcount-composable:
// overlapping windows stay rainy until the last one clears.
type Rainer interface {
	// FaultName identifies the circuit in the event log.
	FaultName() string
	// SetRaining starts (true) or ends (false) one rain window.
	SetRaining(bool)
}

// RainWindow is one rain-fade window on a circuit's timeline.
type RainWindow struct {
	At  sim.Time
	Dur sim.Duration
}

// RainTimeline schedules rain windows on c as first-class fault events:
// each start and end fires at control priority and lands in the plan's
// log, so an E-series report shows the weather alongside every other
// injected fault and a rain-faded run replays from its seed. Windows may
// overlap — the circuit refcounts, the union stays rainy.
func (p *Plan) RainTimeline(c Rainer, windows ...RainWindow) {
	for _, w := range windows {
		w := w
		p.sched.AtPrio(w.At, sim.PrioControl, func() {
			c.SetRaining(true)
			p.record(RainStart, c.FaultName())
		})
		p.sched.AtPrio(w.At.Add(w.Dur), sim.PrioControl, func() {
			c.SetRaining(false)
			p.record(RainEnd, c.FaultName())
		})
	}
}

// SwitchOutage fails sw at instant at and recovers it d later.
func (p *Plan) SwitchOutage(sw Switch, at sim.Time, d sim.Duration) {
	p.sched.AtPrio(at, sim.PrioControl, func() {
		sw.Fail()
		p.record(SwitchFail, sw.FaultName())
	})
	p.sched.AtPrio(at.Add(d), sim.PrioControl, func() {
		sw.Recover()
		p.record(SwitchRecover, sw.FaultName())
	})
}

// SessionDrop kills target's order-entry session at instant at. There is
// no paired recovery event: whether and when the endpoint reconnects is its
// own (deterministic) policy.
func (p *Plan) SessionDrop(target SessionDropper, at sim.Time) {
	p.sched.AtPrio(at, sim.PrioControl, func() {
		target.DropSession()
		p.record(SessionDrop, target.FaultName())
	})
}

// Process is a host process a plan can crash as a unit (an exchange, an
// HA cluster's primary). The implementation owns the consequences: killing
// every transport it holds, cancelling its timers, and freezing state at
// the crash instant. Crash must be idempotent.
type Process interface {
	// FaultName identifies the process in the event log.
	FaultName() string
	// Crash kills the process at the current instant.
	Crash()
}

// ProcessFail crashes target at instant at. There is no recovery: the
// process stays down.
func (p *Plan) ProcessFail(target Process, at sim.Time) {
	p.sched.AtPrio(at, sim.PrioControl, func() {
		target.Crash()
		p.record(ProcessFail, target.FaultName())
	})
}

// RandomConfig parameterizes seed-driven plan generation.
type RandomConfig struct {
	// Links are the candidate links for outages and loss bursts.
	Links []*netsim.Port
	// Switches are the candidate devices for whole-switch outages.
	Switches []Switch
	// Start and End bound the window fault onsets are drawn from.
	Start, End sim.Time
	// Outages is how many outages to draw; each picks a target uniformly
	// from Links and Switches together.
	Outages int
	// MinDown and MaxDown bound each outage's duration (uniform draw).
	MinDown, MaxDown sim.Duration
	// LossBursts is how many loss-burst windows to draw over Links.
	LossBursts int
	// BurstProb is the loss probability applied during a burst.
	BurstProb float64
	// BurstDur is each burst's length.
	BurstDur sim.Duration
}

// Randomize adds cfg.Outages outages and cfg.LossBursts loss bursts drawn
// from rng — pass the scheduler's own RNG for runs that must stay a pure
// function of the seed. Draw order is fixed (outages, then bursts), so a
// given (seed, config) always yields the same timeline.
//
//simlint:allow deadcode: ROADMAP item 16(d) builds its composed-fault generator on it
func (p *Plan) Randomize(rng *rand.Rand, cfg RandomConfig) {
	window := int64(cfg.End.Sub(cfg.Start))
	if window <= 0 {
		panic("fault: Randomize window must be positive")
	}
	span := int64(cfg.MaxDown - cfg.MinDown)
	targets := len(cfg.Links) + len(cfg.Switches)
	for i := 0; i < cfg.Outages; i++ {
		if targets == 0 {
			panic("fault: Randomize with outages but no targets")
		}
		at := cfg.Start.Add(sim.Duration(rng.Int63n(window)))
		d := cfg.MinDown
		if span > 0 {
			d += sim.Duration(rng.Int63n(span))
		}
		t := rng.Intn(targets)
		if t < len(cfg.Links) {
			p.LinkOutage(cfg.Links[t], at, d)
		} else {
			p.SwitchOutage(cfg.Switches[t-len(cfg.Links)], at, d)
		}
	}
	for i := 0; i < cfg.LossBursts; i++ {
		if len(cfg.Links) == 0 {
			panic("fault: Randomize with loss bursts but no links")
		}
		at := cfg.Start.Add(sim.Duration(rng.Int63n(window)))
		p.LossBurst(cfg.Links[rng.Intn(len(cfg.Links))], at, cfg.BurstDur, cfg.BurstProb)
	}
}

// LogString renders the fired-event log, one line per event.
func (p *Plan) LogString() string {
	if len(p.Log) == 0 {
		return "  (no fault events fired)\n"
	}
	var b strings.Builder
	for _, r := range p.Log {
		b.WriteString("  ")
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
