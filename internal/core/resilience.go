// Order-entry resilience wiring: one shared parameter set applied to every
// plant when Scenario.OEResilience is set, so the failover experiment
// compares network shapes rather than tuning choices.
package core

import (
	"tradenet/internal/exchange"
	"tradenet/internal/firm"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// Shared order-entry resilience parameters. The liveness deadline
// (Interval × MissLimit = 1.5 ms) sits under the burst spacing so a
// mid-burst session cut is detected before the next burst; the reconnect
// delay models a deliberate back-off (a real gateway re-resolves, re-dials,
// and re-authenticates before it is allowed back in).
const (
	// oeHeartbeat / oeMissLimit: heartbeat every 500 µs, declared dead
	// after three silent intervals.
	oeHeartbeat = 500 * sim.Microsecond
	oeMissLimit = 3

	// oeAckTimeout..oeMaxResubmits: first resubmit after 400 µs, backing
	// off ×2 per attempt to 3.2 ms, escalated as unknown after 4 attempts.
	oeAckTimeout    = 400 * sim.Microsecond
	oeMaxAckTimeout = 3200 * sim.Microsecond
	oeMaxResubmits  = 4

	// oeReconnectDelay / oeRequoteDelay: redial 5 ms after peer-death;
	// halted strategies re-enter the market after 4 ms.
	oeReconnectDelay = 5 * sim.Millisecond
	oeRequoteDelay   = 4 * sim.Millisecond

	// oeRetainResponses bounds the exchange's replay ring per session. At
	// SmallScenario burst rates a session sees well under this many
	// responses across an outage, so resyncs replay rather than refuse.
	oeRetainResponses = 1024

	// oeBucketCap / oeBucketRefill: per-session ingress budget — a burst
	// of 24 on top of a sustained one message per 30 µs. Sized so the
	// legacy burst load clears but a reconnect's reconcile storm sheds.
	oeBucketCap    = 24
	oeBucketRefill = 30 * sim.Microsecond

	// oeStreamMaxRTO / oeStreamDeadAfter: transport retransmits back off
	// ×2 to 3.2 ms and the stream is declared dead after 8 silent rounds.
	oeStreamMaxRTO    = 3200 * sim.Microsecond
	oeStreamDeadAfter = 8
)

// oeLiveness / oeRetry are the session-level knobs shared by every
// hardened endpoint.
func oeLiveness() orderentry.LivenessConfig {
	return orderentry.LivenessConfig{Interval: oeHeartbeat, MissLimit: oeMissLimit}
}

func oeRetry() orderentry.RetryConfig {
	return orderentry.RetryConfig{
		AckTimeout:    oeAckTimeout,
		MaxAckTimeout: oeMaxAckTimeout,
		MaxResubmits:  oeMaxResubmits,
	}
}

// oeExchangeResilience is the exchange-side configuration: liveness with
// cancel-on-disconnect, a replay ring, idempotent resubmission, and
// per-session ingress shedding. Pass to Exchange.EnableResilience before
// any AcceptSession.
func oeExchangeResilience() exchange.Resilience {
	return exchange.Resilience{
		Session: orderentry.ExchangeResilience{
			Liveness:        oeLiveness(),
			RetainResponses: oeRetainResponses,
			Idempotent:      true,
			Bucket:          orderentry.BucketConfig{Capacity: oeBucketCap, Refill: oeBucketRefill},
		},
		StreamMaxRTO:    oeStreamMaxRTO,
		StreamDeadAfter: oeStreamDeadAfter,
	}
}

// hardenGateway arms a gateway's exchange-facing session: liveness, retry,
// and a redial through reaccept (see Plant.reaccept).
func hardenGateway(g *firm.Gateway, reaccept func() pkt.UDPAddr) {
	g.HardenExchangeSession(firm.GatewayResilience{
		Liveness:        oeLiveness(),
		Retry:           oeRetry(),
		ReconnectDelay:  oeReconnectDelay,
		Reconnect:       reaccept,
		StreamMaxRTO:    oeStreamMaxRTO,
		StreamDeadAfter: oeStreamDeadAfter,
	})
}

// hardenStrategyBehindGateway arms only the market-exit behavior: the
// gateway owns the exchange session, so the strategy's job is to stop
// quoting when the gateway reports the path down (RejectSessionDown /
// RejectBusy) and re-enter on the requote timer. No liveness: the
// gateway-side strategy sessions never heartbeat, so arming a deadline
// here would declare a healthy peer dead.
func hardenStrategyBehindGateway(s *firm.Strategy) {
	s.EnableResilience(firm.StrategyResilience{RequoteDelay: oeRequoteDelay})
}

// hardenTenant arms a cloud tenant that holds its exchange session
// directly: the full gateway treatment (liveness, retry, redial through
// reaccept with replay) plus the strategy's quote halt.
func hardenTenant(s *firm.Strategy, reaccept func() pkt.UDPAddr) {
	s.EnableResilience(firm.StrategyResilience{
		Liveness:        oeLiveness(),
		Retry:           oeRetry(),
		ReconnectDelay:  oeReconnectDelay,
		Reconnect:       reaccept,
		RequoteDelay:    oeRequoteDelay,
		StreamMaxRTO:    oeStreamMaxRTO,
		StreamDeadAfter: oeStreamDeadAfter,
	})
}

// RecoveryCounters is how much order-entry recovery machinery a run
// exercised, summed over the plant.
type RecoveryCounters struct {
	// Exchange side, over the serving venue's sessions.
	Replayed      uint64 // retained responses replayed at resync
	DupSuppressed uint64 // idempotent duplicate submissions absorbed
	ResyncRefused uint64 // resyncs refused (retain window rolled out)
	BusyRejects   uint64 // submissions shed by the ingress token bucket

	// Client sessions.
	Resubmits uint64 // new-order re-emissions
	Overfills uint64 // fills past submitted quantity: the duplicate-execution signature

	// Session owners: the gateways, or in the cloud plant the tenants.
	Reconnects uint64 // sessions redialed
	Unknowns   uint64 // orders escalated as unknown
	Rejected   uint64 // requests a gateway failed fast while its path was down

	Halts   uint64 // strategy quote halts
	Resumes uint64 // strategy quote resumptions
}

// recoveryCounters folds the plant's counters; venue is the exchange whose
// session table serves the clients at the end of the run (the promoted
// standby after a failover).
func (p *Plant) recoveryCounters(venue *exchange.Exchange) RecoveryCounters {
	var c RecoveryCounters
	for i := 0; i < venue.NumSessions(); i++ {
		es := venue.SessionAt(i)
		c.Replayed += es.ReplayedMsgs
		c.DupSuppressed += es.DupSuppressed
		c.ResyncRefused += es.ResyncRefused
		c.BusyRejects += es.BusyRejects
	}
	for _, cs := range p.Clients() {
		c.Resubmits += cs.Resubmits
		c.Overfills += cs.Overfills
	}
	for _, g := range p.Gws {
		c.Reconnects += g.Reconnects
		c.Unknowns += g.Unknowns
		c.Rejected += g.SessionDownRejects
	}
	for _, s := range p.Strats {
		c.Halts += s.Halts
		c.Resumes += s.Resumes
		if p.cloud() {
			c.Reconnects += s.Reconnects
			c.Unknowns += s.UnknownOrders
		}
	}
	return c
}
