package core

import (
	"fmt"
	"slices"
	"strings"

	"tradenet/internal/exchange"
	"tradenet/internal/fault"
	"tradenet/internal/market"
	"tradenet/internal/metrics"
	"tradenet/internal/orderentry"
	"tradenet/internal/sim"
)

// Exchange failover experiment (E23): crash the whole primary venue process
// mid-burst in each of the three designs, with the HA pair armed, and
// measure what a zero-loss failover actually costs. The standby detects the
// journal silence, replays the in-flight journal tail, promotes, and
// resumes matching; order-entry clients detect the dead transport, back
// off, redial through the cluster onto the standby's twin sessions, resync
// by sequence, and resubmit what never got acknowledged; the feed resumes
// on the standby with continued sequence numbers, so downstream receivers
// see silence, not loss.
//
// Every faulted run is paired with a control run — the identical scripted
// workload on an identical plant with no crash — and the experiment checks
// that failover is *invisible in the end state*:
//
//   - book equality: at the end of the run the promoted standby's
//     per-symbol aggregated depth equals the never-failed control's, level
//     for level (the workload is built order-independent so retried and
//     resubmitted orders may arrive in any order);
//   - execution equality: the promoted pair and the control matched
//     exactly the same number of executions — nothing lost, nothing
//     doubled;
//   - zero orphans: every order resting on the promoted book belongs to
//     some re-homed session's working-order view;
//   - zero overfills, zero unknown-order escalations, zero
//     cancel-on-disconnect sweeps (promotion's grace outlives the redial),
//     zero feed gaps (sequence numbering continued across the blackout);
//   - and the run reports the costs: detection latency, feed blackout
//     window, journal tail replayed at promotion, time to first accepted
//     order and first trade on the promoted venue, and the pick-off
//     exposure (orders resting in the dark × blackout) a real desk would
//     price.
//
// The scripted workload is what makes cross-run comparison sound: client c
// submits bids at strictly descending prices (and asks at strictly
// ascending prices) on a small symbol set, every price distinct, never
// crossing — so the final book is a set, insensitive to arrival order —
// plus a handful of unit-quantity crossing sells, scheduled well clear of
// the blackout, that produce deterministic executions against the unique
// best level. Strategy traffic settles in the first pace interval (the
// default join-the-bid trigger only fires on strictly improving bids, and
// only first touches improve), so the organic order flow is identical in
// faulted and control runs.

// Workload schedule. The crash lands mid-stream (submissions run ~12 ms,
// the crash at +9 ms), so in-flight orders ride the resubmit/reconcile
// path; submissions that fail fast while the session is down are retried
// by the client app until accepted. Crossing sells sit ≥2 ms clear of the
// crash on the left and past the redial+reconcile window on the right.
const (
	ehaPace      = 500 * sim.Microsecond // per-client submission interval
	ehaOrdersPer = 24                    // scripted orders per client
	ehaSymbols   = 4                     // symbols touched (all in the first intervals)
	ehaBidBase   = market.Price(5000)
	ehaAskBase   = market.Price(6000)
	ehaQty       = market.Qty(10)
	ehaCrashLag  = 9 * sim.Millisecond // workload start → crash
	ehaRetry     = 1 * sim.Millisecond // client-app resubmit interval on fast failure
)

// EHADesignRun is one design's venue-kill run plus its paired control.
type EHADesignRun struct {
	Design string

	// Failover timeline. DetectIn is crash → promotion (journal-silence
	// watchdog); Blackout is the feed dark window, last primary datagram →
	// first promoted-standby datagram; ReplayDepth is how many journal
	// records the standby applied between the crash instant and promotion
	// (the in-flight tail it had to drain); FirstAcceptIn / FirstTradeIn
	// are promotion → first accepted order / first execution on the
	// promoted venue.
	DetectIn      sim.Duration
	Blackout      sim.Duration
	ReplayDepth   uint64
	FirstAcceptIn sim.Duration
	FirstTradeIn  sim.Duration

	// Exposure: orders resting in the dark during the blackout. PickOffOrdMs
	// is RestingAtCrash × Blackout in order·milliseconds — the quantity a
	// desk would multiply by adverse-move variance to price the failure.
	RestingAtCrash int
	PickOffOrdMs   float64

	// End-state invariants against the paired control run.
	Promoted        bool
	ControlPromoted bool // must stay false: heartbeats hold the watchdog
	DigestMatch     bool // promoted book == control book, level for level
	ExecsFailover   uint64
	ExecsControl    uint64 // must equal ExecsFailover
	ViewMismatch    int
	Orphans         int
	CODCancels      uint64
	FeedGaps        uint64

	// Recovery machinery volume (Overfills and Unknowns must be 0).
	RecoveryCounters
	RetriedSubmits uint64 // client-app retries of fast-failed submissions
	OrdersPrimary  uint64 // accepted by the primary before the crash
	OrdersBackup   uint64 // accepted by the standby after promotion

	Registry    string // ha.* and oe.* counters from the faulted run
	FaultLog    string
	DecisionLog string
}

// InvariantsOK reports whether the failover was zero-loss and invisible in
// the end state.
func (r EHADesignRun) InvariantsOK() bool {
	return r.Promoted && !r.ControlPromoted &&
		r.DetectIn > 0 && r.DetectIn <= sim.Duration(2*sim.Millisecond) &&
		r.Blackout > 0 &&
		r.DigestMatch &&
		r.ExecsFailover == r.ExecsControl && r.ExecsFailover > 0 &&
		r.ViewMismatch == 0 && r.Orphans == 0 &&
		r.Overfills == 0 && r.Unknowns == 0 &&
		r.CODCancels == 0 && r.FeedGaps == 0 &&
		r.FirstAcceptIn > 0 && r.FirstTradeIn > 0 &&
		r.Reconnects > 0 && r.OrdersBackup > 0
}

// ehaOrder is one scripted submission.
type ehaOrder struct {
	client int
	at     sim.Time
	id     uint64
	sym    market.SymbolID
	side   market.Side
	price  market.Price
	qty    market.Qty
}

// ehaScript builds the deterministic workload for nClients clients: paced
// non-crossing bids/asks from start, plus unit crossing sells clear of the
// crash window on both sides.
func ehaScript(u *market.Universe, nClients int, start, crashAt sim.Time) []ehaOrder {
	syms := make([]market.SymbolID, ehaSymbols)
	for i := range syms {
		syms[i] = u.All()[i].ID
	}
	var script []ehaOrder
	bidDepth := make(map[market.SymbolID]market.Price)
	askDepth := make(map[market.SymbolID]market.Price)
	for k := 0; k < ehaOrdersPer; k++ {
		for c := 0; c < nClients; c++ {
			o := ehaOrder{
				client: c,
				at:     start.Add(sim.Duration(k)*ehaPace + sim.Duration(c)*20*sim.Microsecond),
				id:     uint64(1)<<40 | uint64(c)<<20 | uint64(k),
				sym:    syms[(c+k)%ehaSymbols],
				qty:    ehaQty,
			}
			if k%3 == 2 {
				o.side = market.Sell
				o.price = ehaAskBase + askDepth[o.sym]
				askDepth[o.sym]++
			} else {
				o.side = market.Buy
				o.price = ehaBidBase - bidDepth[o.sym]
				bidDepth[o.sym]++
			}
			script = append(script, o)
		}
	}
	// Crossing sells: unit quantity against the unique best bid level.
	// Pre-crash pair ≥2 ms clear of the crash; post-crash pair past the
	// detect → back-off → redial → reconcile window.
	for n, at := range []sim.Time{
		start.Add(2 * sim.Millisecond),
		start.Add(3500 * sim.Microsecond),
		crashAt.Add(14 * sim.Millisecond),
		crashAt.Add(15500 * sim.Microsecond),
	} {
		script = append(script, ehaOrder{
			client: 0, at: at, id: uint64(1)<<41 | uint64(n),
			sym: syms[0], side: market.Sell, price: 1, qty: 1,
		})
	}
	return script
}

// ehaBookDigest renders the venue's aggregated depth — every symbol, every
// level, best first — as a comparable string.
func ehaBookDigest(ex *exchange.Exchange, u *market.Universe) string {
	var b strings.Builder
	for _, ins := range u.All() {
		bk := ex.Book(ins.ID)
		if bk.Orders() == 0 {
			continue
		}
		for _, side := range []market.Side{market.Buy, market.Sell} {
			for _, l := range bk.Levels(side, 1<<20) {
				fmt.Fprintf(&b, "%s/%d %d@%d(%d);", ins.Ticker, side, l.Size, l.Price, l.Orders)
			}
		}
	}
	return b.String()
}

// runEHAPlant drives the scripted workload on one plant. With failover set
// it crashes the primary and fills the recovery-side fields of res; the
// control pass fills only the control fields. Returns the end-of-run book
// digest of whichever venue is live.
func runEHAPlant(p *Plant, failover bool, res *EHADesignRun) string {
	sched, clients := p.Sched, p.Clients()
	p.HA.Start()

	start := sim.Time(5 * sim.Millisecond) // logons drain first
	crashAt := start.Add(ehaCrashLag)
	end := crashAt.Add(19 * sim.Millisecond)

	// Client-app submission: a fast failure (session down, not logged on)
	// retries until the order lands — the workload's order *set* is
	// identical in faulted and control runs, only arrival order differs.
	var submit func(o ehaOrder)
	submit = func(o ehaOrder) {
		cs := clients[o.client]
		if err := cs.NewOrder(o.id, o.sym, o.side, o.price, o.qty); err != nil {
			if failover {
				res.RetriedSubmits++
			}
			sched.At(sched.Now().Add(ehaRetry), func() { submit(o) })
		}
	}
	for _, o := range ehaScript(p.U, len(clients), start, crashAt) {
		o := o
		sched.At(o.at, func() { submit(o) })
	}

	pri, bak := p.HA.Primary, p.HA.Backup
	var ordersPrimary uint64
	pri.OnOrderAccepted = func(*orderentry.Msg, sim.Time) { ordersPrimary++ }

	if failover {
		plan := fault.NewPlan(sched)
		plan.ProcessFail(p.HA, crashAt)

		var appliedAtCrash, execsAtPromote uint64
		sched.AtPrio(crashAt, sim.PrioReport, func() {
			appliedAtCrash = p.HA.Follower.Applied
			for _, ins := range p.U.All() {
				res.RestingAtCrash += pri.Book(ins.ID).Orders()
			}
		})
		prevPromote := p.HA.OnPromote
		p.HA.OnPromote = func() {
			if prevPromote != nil {
				prevPromote()
			}
			execsAtPromote = bak.Executions
		}

		// Blackout right edge: the promoted standby's first datagram (the
		// tap never fires while dark).
		var firstPublish, firstAccept, firstTrade sim.Time
		bak.SetOnPublishDgram(func([]byte) {
			if firstPublish == 0 {
				firstPublish = sched.Now()
			}
		})
		// First accept / first trade on the promoted venue. The accepted
		// hook fires before matching, so the execution check runs at
		// report priority of the same instant, after fills are counted.
		bak.OnOrderAccepted = func(_ *orderentry.Msg, at sim.Time) {
			if !p.HA.Promoted() {
				return
			}
			res.OrdersBackup++
			if firstAccept == 0 {
				firstAccept = at
			}
			if firstTrade == 0 {
				sched.AtPrio(at, sim.PrioReport, func() {
					if firstTrade == 0 && bak.Executions > execsAtPromote {
						firstTrade = at
					}
				})
			}
		}

		sched.RunUntil(end)

		res.Promoted = p.HA.Promoted()
		res.OrdersPrimary = ordersPrimary
		if res.Promoted {
			res.DetectIn = p.HA.PromotedAt.Sub(crashAt)
			res.ReplayDepth = p.HA.AppliedAtPromote - appliedAtCrash
		}
		if firstPublish > 0 {
			res.Blackout = firstPublish.Sub(pri.LastPublishAt())
		}
		if firstAccept > 0 {
			res.FirstAcceptIn = firstAccept.Sub(p.HA.PromotedAt)
		}
		if firstTrade > 0 {
			res.FirstTradeIn = firstTrade.Sub(p.HA.PromotedAt)
		}
		res.PickOffOrdMs = float64(res.RestingAtCrash) *
			float64(res.Blackout) / float64(sim.Millisecond)
		res.ExecsFailover = bak.Executions
		res.CODCancels = pri.CancelOnDisconnect + bak.CancelOnDisconnect

		// Re-homed view reconciliation and orphan accounting on the
		// promoted book: every client's working-order set must equal the
		// standby's, and every resting order must belong to some session.
		resting := 0
		for _, ins := range p.U.All() {
			resting += bak.Book(ins.ID).Orders()
		}
		owned := 0
		for i, cs := range clients {
			w := bak.WorkingOrders(bak.SessionAt(i))
			owned += len(w)
			if !slices.Equal(w, cs.OpenIDs()) {
				res.ViewMismatch++
			}
		}
		res.Orphans = resting - owned
		res.RecoveryCounters = p.recoveryCounters(bak)
		for _, n := range p.Norms {
			res.FeedGaps += n.MsgLost
		}
		for _, s := range p.Strats {
			res.FeedGaps += s.GapsSeen
		}

		reg := metrics.NewRegistry()
		p.HA.RegisterMetrics(reg)
		reg.RegisterUint("oe.resubmits", &res.Resubmits)
		reg.RegisterUint("oe.dup_suppressed", &res.DupSuppressed)
		reg.RegisterUint("oe.replayed", &res.Replayed)
		reg.RegisterUint("oe.reconnects", &res.Reconnects)
		res.Registry = reg.String()
		res.FaultLog = plan.LogString()
		res.DecisionLog = p.HA.DecisionLog()
		return ehaBookDigest(bak, p.U)
	}

	sched.RunUntil(end)
	res.ControlPromoted = p.HA.Promoted()
	res.ExecsControl = pri.Executions
	return ehaBookDigest(pri, p.U)
}

// runEHADesign runs the faulted pass and its control on fresh identical
// plants and checks end-state equality.
func runEHADesign(build func() *Plant) EHADesignRun {
	fo := build()
	res := EHADesignRun{Design: fo.Name}
	foDigest := runEHAPlant(fo, true, &res)
	coDigest := runEHAPlant(build(), false, &res)
	res.DigestMatch = foDigest != "" && foDigest == coDigest
	return res
}

// ExchangeFailoverReport is E23 replicated across seeds.
type ExchangeFailoverReport = faultReport[seedDesigns[EHADesignRun]]

// RunExchangeFailover crashes the primary venue mid-burst in all three
// designs for every seed, each paired with a no-crash control, in
// parallel, results in seed order. Each run is a pure function of its
// seed.
func RunExchangeFailover(sc Scenario, seeds []int64) ExchangeFailoverReport {
	return exchangeFailover.replicate(sc, seeds)
}

// exchangeFailover is E23: one table row per seed × design, then the first
// seed's ha.*/oe.* registry, promotion decision log, and fault timeline.
var exchangeFailover = &faultExperiment[seedDesigns[EHADesignRun]]{
	id:    "exchangefailover",
	title: "Exchange failover (primary/backup HA)",
	intro: "The primary venue process dies mid-burst; the standby detects journal silence,\n" +
		"replays the in-flight tail, promotes, and resumes matching and publishing with\n" +
		"continued sequence numbers while clients redial onto its twin sessions. Each\n" +
		"faulted run is paired with a no-crash control: final books and execution counts\n" +
		"must be identical — the failover must be invisible in the end state.\n",
	run: func(sc Scenario) seedDesigns[EHADesignRun] {
		sc.OEResilience = true
		sc.ExchangeHA = true
		return standardDesigns(sc, runEHADesign)
	},
	tables: []func([]int64, []seedDesigns[EHADesignRun]) string{table("", seedDesigns[EHADesignRun].cells, []column[EHADesignRun]{
		{"design", func(d EHADesignRun) any { return d.Design }},
		{"detect", func(d EHADesignRun) any { return d.DetectIn }},
		{"blackout", func(d EHADesignRun) any { return d.Blackout }},
		{"replay", func(d EHADesignRun) any { return d.ReplayDepth }},
		{"rest@crash", func(d EHADesignRun) any { return d.RestingAtCrash }},
		{"pickoff ord·ms", func(d EHADesignRun) any { return fmt.Sprintf("%.1f", d.PickOffOrdMs) }},
		{"1st accept", func(d EHADesignRun) any { return d.FirstAcceptIn }},
		{"1st trade", func(d EHADesignRun) any { return d.FirstTradeIn }},
		{"redials", func(d EHADesignRun) any { return d.Reconnects }},
		{"resub/dup", func(d EHADesignRun) any { return fmt.Sprintf("%d/%d", d.Resubmits, d.DupSuppressed) }},
		{"retried", func(d EHADesignRun) any { return d.RetriedSubmits }},
		{"execs fo=ctl", func(d EHADesignRun) any { return fmt.Sprintf("%d=%d", d.ExecsFailover, d.ExecsControl) }},
		{"invariants", verdict[EHADesignRun]},
	})},
	appendix: func(seed int64, first seedDesigns[EHADesignRun]) string {
		return fmt.Sprintf("\nMetrics registry (seed %d, %s):\n%s", seed, first.Designs[0].Design, first.Designs[0].Registry) +
			designLogs("Promotion decisions", seed, first.Designs, func(d EHADesignRun) (string, string) { return d.Design, d.DecisionLog }) +
			designLogs("Fault timeline", seed, first.Designs, func(d EHADesignRun) (string, string) { return d.Design, d.FaultLog })
	},
	manifests: func(s seedDesigns[EHADesignRun]) []faultCell {
		var cells []faultCell
		for _, d := range s.Designs {
			cells = append(cells, faultCell{design: d.Design,
				faults: logs("faults", d.FaultLog), decisions: logs("promotion", d.DecisionLog)})
		}
		return cells
	},
}
