package core

import (
	"fmt"
	"strings"

	"tradenet/internal/exchange"
	"tradenet/internal/fault"
	"tradenet/internal/metrics"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/replication"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// Exchange high availability (Scenario.ExchangeHA): a hot-standby exchange
// pair built from internal/replication's journal plus the exchange's shadow
// machinery.
//
//	primary exchange ─ journal tap ─► dedicated stream ─► follower ─► shadow apply
//	                                                                  (dark standby)
//
// The primary journals every accepted operation, every response byte, and
// every feed datagram; the standby applies them into shadow books, session
// transcripts, and feed retain windows. Liveness is the journal itself:
// once Start is called the primary heartbeats the journal on a fixed
// cadence, and a standby-side watchdog promotes after haDeadAfter of
// silence. Promotion unmutes the shadow sessions under a widened liveness
// grace (clients need time to detect the death and redial), and re-homed
// sessions resync by replay against the adopted transcripts — the same
// PR 5 sequence-resync path an ordinary reconnect takes. Feed numbering
// continues from the adopted datagrams, so downstream arbiters and
// recovery clients see at most an ordinary gap, never a restart.
//
// Until Start, the pair replicates passively and never self-arms a tick,
// so knob-on plants still drain their event queues; runs that Start the
// cluster bound themselves with RunUntil (the WANFeed controller idiom).

// HA side-channel host IDs (disjoint from the plant's ranges and from the
// wanfeed pair), stream ports, and the standby exchange's host ID.
const (
	idExchangeBak = 110
	idHAPri       = 92
	idHABak       = 93

	haPriPort = 5200
	haBakPort = 5201

	// haLinkLatency is the replication link's one-way latency — an
	// intra-facility cross-connect, not a WAN.
	haLinkLatency = 5 * sim.Microsecond

	// haHeartbeat / haDeadAfter: the primary journals a keepalive every
	// 250 µs; the standby promotes after 1 ms of journal silence (four
	// silent intervals). Detection must finish well inside the clients'
	// own liveness-plus-redial window (~6.5 ms) so the promoted venue is
	// up before the first relogon arrives.
	haHeartbeat = 250 * sim.Microsecond
	haDeadAfter = 1 * sim.Millisecond

	// haGraceMissLimit widens the promoted sessions' liveness deadline to
	// Interval × 20 = 10 ms: wide enough for a client to detect the
	// primary's death (1.5 ms), back off (5 ms), and relogon before
	// cancel-on-disconnect would sweep its resting orders.
	haGraceMissLimit = 20
)

// haGrace is the session resilience the promoted standby re-arms with.
func haGrace() orderentry.ExchangeResilience {
	cfg := oeExchangeResilience().Session
	cfg.Liveness.MissLimit = haGraceMissLimit
	return cfg
}

// HACluster owns one primary/standby exchange pair: the replication link
// between them, the journal heartbeat, the promotion watchdog, and the
// session re-home routing.
type HACluster struct {
	Sched    *sim.Scheduler
	Primary  *exchange.Exchange
	Backup   *exchange.Exchange
	Journal  *replication.Journal
	Follower *replication.Follower

	// OnPromote, if set, runs immediately after the standby promotes —
	// designs hook fabric re-steering here (e.g. the cloud equalizer's
	// standby-port swap).
	OnPromote func()

	// HeartbeatsSent / WatchdogTicks / Promotions are the cluster's own
	// counters (journal and follower volumes live on those structs).
	HeartbeatsSent uint64
	WatchdogTicks  uint64
	Promotions     uint64

	// PromotedAt is the promotion instant (zero while the primary lives);
	// AppliedAtPromote snapshots the follower's applied-record count at
	// that instant — the "journal replay depth" observable is the delta
	// against the count at crash time.
	PromotedAt       sim.Time
	AppliedAtPromote uint64

	priStream    *netsim.Stream
	lastRecordAt sim.Time
	promoted     bool
	started      bool
	log          strings.Builder
}

// NewHACluster wires primary and backup into a replication pair: the backup
// goes dark, a dedicated loss-free stream carries the journal, and every
// record applies into the shadow on arrival. Call before the design accepts
// any order-entry session, so session-table deltas reach the standby.
func NewHACluster(sched *sim.Scheduler, primary, backup *exchange.Exchange) *HACluster {
	c := &HACluster{Sched: sched, Primary: primary, Backup: backup}
	backup.StartShadow()
	c.Follower = &replication.Follower{Apply: func(r *replication.Record) {
		c.lastRecordAt = sched.Now()
		backup.ShadowApply(r)
	}}

	priNIC := netsim.NewHost(sched, "ha-journal-pri").AddNIC("jrn", idHAPri)
	bakNIC := netsim.NewHost(sched, "ha-journal-bak").AddNIC("jrn", idHABak)
	netsim.Connect(priNIC.Port, bakNIC.Port, units.Rate10G, haLinkLatency)
	priMux := netsim.NewStreamMux(priNIC)
	bakMux := netsim.NewStreamMux(bakNIC)
	c.priStream = netsim.NewStream(priNIC, haPriPort, bakNIC.Addr(haBakPort))
	bakStream := netsim.NewStream(bakNIC, haBakPort, priNIC.Addr(haPriPort))
	priMux.Register(c.priStream)
	bakMux.Register(bakStream)
	bakStream.OnData = func(b []byte) {
		if err := c.Follower.Receive(b); err != nil {
			// The link is loss-free and ordered; a gap is a bug, not weather.
			panic(fmt.Sprintf("ha: journal follower: %v", err))
		}
	}
	c.Journal = primary.EnableJournal(func(b []byte) { c.priStream.Write(b) })
	return c
}

// Start arms the liveness loop: journal heartbeats on the primary and the
// promotion watchdog on the standby. Both ticks stop on their own once the
// primary dies and the standby promotes; until a crash they re-arm forever,
// so Start-ed runs bound themselves with RunUntil.
func (c *HACluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.lastRecordAt = c.Sched.Now()
	c.Sched.AtPrio(c.Sched.Now().Add(haHeartbeat), sim.PrioControl, c.heartbeatTick)
	c.Sched.AtPrio(c.Sched.Now().Add(haHeartbeat), sim.PrioControl, c.watchdogTick)
}

func (c *HACluster) heartbeatTick() {
	if c.Primary.Crashed() {
		return // a corpse does not heartbeat; the tick dies with it
	}
	c.Journal.Heartbeat()
	c.HeartbeatsSent++
	c.Sched.AtPrio(c.Sched.Now().Add(haHeartbeat), sim.PrioControl, c.heartbeatTick)
}

func (c *HACluster) watchdogTick() {
	if c.promoted {
		return
	}
	c.WatchdogTicks++
	now := c.Sched.Now()
	if now.Sub(c.lastRecordAt) >= haDeadAfter {
		c.promote(now)
		return
	}
	c.Sched.AtPrio(now.Add(haHeartbeat), sim.PrioControl, c.watchdogTick)
}

// promote is the failover decision: the journal has been silent past the
// deadline, so the primary is presumed dead and the standby takes over.
func (c *HACluster) promote(now sim.Time) {
	c.promoted = true
	c.Promotions++
	c.PromotedAt = now
	c.AppliedAtPromote = c.Follower.Applied
	c.logf(now, "journal silent %dps (last record t=%dps); declaring primary %s dead",
		int64(now.Sub(c.lastRecordAt)), int64(c.lastRecordAt), c.Primary.FaultName())
	c.Backup.Promote(haGrace())
	c.logf(now, "promoted %s: applied %d records (journal seq %d), %d sessions, grace deadline %dps",
		c.Backup.FaultName(), c.Follower.Applied, c.Follower.LastSeq(),
		c.Backup.NumSessions(), int64(oeHeartbeat)*haGraceMissLimit)
	if c.OnPromote != nil {
		c.OnPromote()
	}
}

// Promoted reports whether the standby has taken over.
func (c *HACluster) Promoted() bool { return c.promoted }

// Active returns the exchange currently serving: the standby once promoted,
// the primary until then.
func (c *HACluster) Active() *exchange.Exchange {
	if c.promoted {
		return c.Backup
	}
	return c.Primary
}

// Reaccept provisions a replacement order-entry endpoint for the client on
// session-table index idx, at whichever exchange is live — the HA-aware
// form of Exchange.ReacceptSession that redial closures route through. Both
// machines allocate session indexes in accept order, so idx addresses the
// same logical session on either.
func (c *HACluster) Reaccept(idx int, clientAddr pkt.UDPAddr) pkt.UDPAddr {
	ex := c.Active()
	return ex.OENIC().Addr(ex.ReacceptSession(ex.SessionAt(idx), clientAddr))
}

// FaultName implements fault.Process, naming the primary (the process a
// failover plan kills).
func (c *HACluster) FaultName() string { return c.Primary.FaultName() }

// Crash implements fault.Process: the primary process dies, taking its
// journal transport with it. Records already on the wire still deliver —
// that in-flight tail is what the standby replays before promoting.
func (c *HACluster) Crash() {
	c.Primary.Crash()
	c.priStream.Kill()
	c.logf(c.Sched.Now(), "primary %s crashed (journal seq %d, %d records sent)",
		c.Primary.FaultName(), c.Journal.Seq(), c.Journal.Records)
}

// Compile-time check: a cluster is a schedulable fault target.
var _ fault.Process = (*HACluster)(nil)

// RegisterMetrics registers the cluster's counters under ha.*.
func (c *HACluster) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterUint("ha.journal.records", &c.Journal.Records)
	reg.RegisterUint("ha.journal.bytes", &c.Journal.Bytes)
	reg.RegisterUint("ha.follower.applied", &c.Follower.Applied)
	reg.RegisterUint("ha.follower.bytes", &c.Follower.Bytes)
	reg.RegisterUint("ha.heartbeats_sent", &c.HeartbeatsSent)
	reg.RegisterUint("ha.watchdog.ticks", &c.WatchdogTicks)
	reg.RegisterUint("ha.promotions", &c.Promotions)
	reg.RegisterUint("ha.executions.primary", &c.Primary.Executions)
	reg.RegisterUint("ha.executions.backup", &c.Backup.Executions)
}

// DecisionLog returns the deterministic failover decision log (virtual-time
// stamped), for the manifest's decisions block.
func (c *HACluster) DecisionLog() string { return c.log.String() }

func (c *HACluster) logf(at sim.Time, format string, args ...any) {
	fmt.Fprintf(&c.log, "t=%dps ", int64(at))
	fmt.Fprintf(&c.log, format, args...)
	c.log.WriteByte('\n')
}
