package core

import (
	"fmt"
	"slices"

	"tradenet/internal/fault"
	"tradenet/internal/metrics"
	"tradenet/internal/orderentry"
	"tradenet/internal/sim"
)

// Order-entry failover experiment (E21): kill the order-entry path of one
// participant mid-burst in each of the three designs and watch the session
// layer put the world back together. The victim's transport dies instantly
// (a process crash on the OE path); the exchange only learns through
// heartbeat silence, then cancels everything the dead session owns
// (cancel-on-disconnect) and publishes the removals on the feed. The victim
// redials after a deliberate back-off, resyncs by sequence, receives the
// retained responses it missed — acks, fills, and the cancel-on-disconnect
// cancels — and reconciles its working-order view off the replay. Orders
// whose acks died on the wire are resubmitted and absorbed by the
// exchange's idempotent duplicate handling, so nothing executes twice.
//
// The run checks the invariants that make such a recovery trustworthy:
//
//   - no duplicate fills: no client order ever fills past its submitted
//     quantity (Overfills == 0), even though in-flight orders are resubmitted;
//   - no orphaned liquidity: a probe between cancel-on-disconnect and the
//     redial finds zero resting orders owned by the dead session;
//   - reconciled views: at the end of the run every client's working-order
//     set is byte-for-byte the exchange's view of that session's book;
//   - determinism: the whole faulted run is a pure function of the seed
//     (the test reruns it and compares reports byte for byte).

// Session-kill schedule: bursts every oefBurstInterval from oefBurstStart;
// the victim dies just before burst oefDropBurst publishes, so that burst's
// orders fly into the dead transport. The orphan probe lands after the
// liveness deadline (1.5–2 ms to detect) but before the redial
// (oeReconnectDelay after detection).
const (
	oefBursts        = 10
	oefBurstInterval = 2 * sim.Millisecond
	oefDropBurst     = 3
	oefOrphanProbe   = 4 * sim.Millisecond
	oefDrain         = 11 * sim.Millisecond
)

// OEDesignRun is one design's session-kill run.
type OEDesignRun struct {
	Design string
	Victim string

	// Invariant probes. DetectIn is drop → exchange-side peer-death
	// (cancel-on-disconnect instant); OrphansAtProbe is the dead session's
	// resting-order count after cancel-on-disconnect (must be 0);
	// ViewMismatch counts sessions whose end-of-run client working-order
	// set differs from the exchange's (must be 0).
	DetectIn       sim.Duration
	OrphansAtProbe int
	ViewMismatch   int

	CODCancels       uint64 // exchange cancels issued by cancel-on-disconnect
	RecoveryCounters        // resilience machinery volume (Overfills must be 0)

	Orders   uint64 // orders the exchange accepted over the run
	Registry string // metrics registry dump (oe.* et al.)
	FaultLog string
}

// runOEDesign runs the session-kill schedule against one plant.
func runOEDesign(p *Plant) OEDesignRun {
	victim, clients := p.Victim(), p.Clients()
	res := OEDesignRun{Design: p.Name, Victim: victim.FaultName()}
	sched := p.Sched

	burstStart := sim.Time(5 * sim.Millisecond) // logons drain first
	// The drop lands inside burst oefDropBurst's tick-to-trade window: the
	// burst has published and its orders are mid-flight on the OE path, so
	// the kill catches unacknowledged orders and in-flight responses — the
	// hardest case for the replay/resubmit reconciliation.
	dropAt := burstStart.Add(sim.Duration(oefDropBurst)*oefBurstInterval + 12*sim.Microsecond)

	plan := fault.NewPlan(sched)
	plan.SessionDrop(victim, dropAt)

	p.publishBursts(oefBursts, p.Scenario.BurstMessages/oefBursts, burstStart, oefBurstInterval, nil)
	p.Ex.OnOrderAccepted = func(*orderentry.Msg, sim.Time) { res.Orders++ }

	// Stamp the exchange-side death declaration without disturbing the
	// cancel-on-disconnect hook it triggers.
	vSess := p.ExSessions[0]
	onDead := vSess.OnPeerDead
	vSess.OnPeerDead = func() {
		if res.DetectIn == 0 {
			res.DetectIn = sched.Now().Sub(dropAt)
		}
		if onDead != nil {
			onDead()
		}
	}

	// Orphan probe: after cancel-on-disconnect, before the redial, nothing
	// in the book may still belong to the dead session.
	sched.AtPrio(dropAt.Add(oefOrphanProbe), sim.PrioReport, func() {
		res.OrphansAtProbe = p.Ex.OpenOrdersOf(vSess)
	})

	// Liveness timers re-arm forever, so the run bounds itself by deadline
	// rather than queue exhaustion.
	end := burstStart.Add(sim.Duration(oefBursts)*oefBurstInterval + oefDrain)
	sched.RunUntil(end)

	// Reconciliation invariant: every client's working-order view must
	// equal the exchange's view of that session, victim included.
	for i, es := range p.ExSessions {
		if !slices.Equal(p.Ex.WorkingOrders(es), clients[i].OpenIDs()) {
			res.ViewMismatch++
		}
	}
	res.CODCancels = p.Ex.CancelOnDisconnect
	res.RecoveryCounters = p.recoveryCounters(p.Ex)

	reg := metrics.NewRegistry()
	reg.RegisterUint("oe.retries", &res.Resubmits)
	reg.RegisterUint("oe.busy_rejects", &res.BusyRejects)
	reg.RegisterUint("oe.cancel_on_disconnect", &p.Ex.CancelOnDisconnect)
	reg.RegisterUint("oe.sessions_dropped", &p.Ex.SessionsDropped)
	reg.RegisterUint("oe.replayed", &res.Replayed)
	reg.RegisterUint("oe.dup_suppressed", &res.DupSuppressed)
	reg.RegisterUint("oe.reconnects", &res.Reconnects)
	reg.RegisterUint("oe.halts", &res.Halts)
	res.Registry = reg.String()
	res.FaultLog = plan.LogString()
	return res
}

// InvariantsOK reports whether a run upheld the recovery contract.
func (r OEDesignRun) InvariantsOK() bool {
	return r.DetectIn > 0 && // the exchange noticed the death
		r.OrphansAtProbe == 0 && // cancel-on-disconnect cleared the book
		r.ViewMismatch == 0 && // every view reconciled
		r.Overfills == 0 && // nothing executed twice
		r.Reconnects > 0 // the victim made it back in
}

// OEFailoverReport is E21 replicated across seeds.
type OEFailoverReport = faultReport[seedDesigns[OEDesignRun]]

// RunOEFailover kills the order-entry path mid-burst in all three designs
// for every seed, in parallel, results in seed order. Each run is a pure
// function of its seed.
func RunOEFailover(sc Scenario, seeds []int64) OEFailoverReport {
	return oeFailover.replicate(sc, seeds)
}

// oeFailover is E21: one table row per seed × design, then the first
// seed's metrics registry and fault timelines.
var oeFailover = &faultExperiment[seedDesigns[OEDesignRun]]{
	id:    "oefailover",
	title: "Order-entry session failover",
	intro: "A participant's OE path dies mid-burst; the exchange detects via heartbeat\n" +
		"silence, cancels the dead session's orders, and the victim redials, resyncs by\n" +
		"sequence, and reconciles off the replayed responses. Invariants: no orphaned\n" +
		"resting orders, no duplicate executions, client and exchange views equal.\n",
	run: func(sc Scenario) seedDesigns[OEDesignRun] {
		sc.OEResilience = true
		return standardDesigns(sc, func(build func() *Plant) OEDesignRun { return runOEDesign(build()) })
	},
	tables: []func([]int64, []seedDesigns[OEDesignRun]) string{table("", seedDesigns[OEDesignRun].cells, []column[OEDesignRun]{
		{"design", func(d OEDesignRun) any { return d.Design }},
		{"victim", func(d OEDesignRun) any { return d.Victim }},
		{"detect", func(d OEDesignRun) any { return d.DetectIn }},
		{"orphans", func(d OEDesignRun) any { return d.OrphansAtProbe }},
		{"COD", func(d OEDesignRun) any { return d.CODCancels }},
		{"replayed", func(d OEDesignRun) any { return d.Replayed }},
		{"resub/dup", func(d OEDesignRun) any { return fmt.Sprintf("%d/%d", d.Resubmits, d.DupSuppressed) }},
		{"shed", func(d OEDesignRun) any { return d.BusyRejects }},
		{"redials", func(d OEDesignRun) any { return d.Reconnects }},
		{"halts/resumes", func(d OEDesignRun) any { return fmt.Sprintf("%d/%d", d.Halts, d.Resumes) }},
		{"fastfail", func(d OEDesignRun) any { return d.Rejected }},
		{"orders", func(d OEDesignRun) any { return d.Orders }},
		{"invariants", verdict[OEDesignRun]},
	})},
	appendix: func(seed int64, first seedDesigns[OEDesignRun]) string {
		return fmt.Sprintf("\nMetrics registry (seed %d, %s):\n%s", seed, first.Designs[0].Design, first.Designs[0].Registry) +
			designLogs("Fault timeline", seed, first.Designs, func(d OEDesignRun) (string, string) { return d.Design, d.FaultLog })
	},
	manifests: func(s seedDesigns[OEDesignRun]) []faultCell {
		var cells []faultCell
		for _, d := range s.Designs {
			cells = append(cells, faultCell{design: d.Design, faults: logs("faults", d.FaultLog)})
		}
		return cells
	},
}
