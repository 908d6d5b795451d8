// Session resilience: liveness timers, ack-timeout resubmission, response
// retention + reconnect replay, and ingress overload shedding.
//
// Production order-entry sessions (BOE, OUCH) are stateful in exactly these
// ways: both ends heartbeat and declare the peer dead after a deadline of
// silence; venues mass-cancel a dead owner's resting orders (cancel-on-
// disconnect); clients resubmit unacknowledged orders under an idempotency
// key; and a reconnecting session logs on with its next expected sequence so
// the venue can replay the responses it missed. Everything here is opt-in:
// a session with no resilience configured behaves — and schedules — exactly
// as it did before, so fault-free simulations are byte-identical.
package orderentry

import (
	"sort"

	"tradenet/internal/sim"
)

// LivenessConfig parameterizes heartbeat emission and peer-death detection.
// The zero value disables liveness.
type LivenessConfig struct {
	// Interval is the heartbeat period: every Interval the session emits a
	// heartbeat and checks how long the peer has been silent.
	Interval sim.Duration
	// MissLimit is how many whole intervals of inbound silence the session
	// tolerates before declaring the peer dead.
	MissLimit int
}

// deadline returns the silence span that triggers peer-death.
func (l LivenessConfig) deadline() sim.Duration {
	return l.Interval * sim.Duration(l.MissLimit)
}

// RetryConfig parameterizes ack-timeout resubmission on a ClientSession.
// The zero value disables retries.
type RetryConfig struct {
	// AckTimeout is the first ack deadline after a new-order send; 0
	// disables resubmission entirely.
	AckTimeout sim.Duration
	// MaxAckTimeout caps the exponential backoff (the deadline doubles per
	// attempt). 0 defaults to 8× AckTimeout.
	MaxAckTimeout sim.Duration
	// MaxResubmits is how many resubmissions are attempted before the order
	// is escalated through OnOrderUnknown. 0 defaults to 4.
	MaxResubmits int
}

// withDefaults fills the zero-value knobs.
func (r RetryConfig) withDefaults() RetryConfig {
	if r.MaxAckTimeout == 0 {
		r.MaxAckTimeout = 8 * r.AckTimeout
	}
	if r.MaxResubmits == 0 {
		r.MaxResubmits = 4
	}
	return r
}

// backoff returns the ack deadline for the given attempt number: doubling
// from AckTimeout, capped at MaxAckTimeout. Purely arithmetic on virtual
// durations, so a retry schedule is a deterministic function of the config.
func (r RetryConfig) backoff(attempt int) sim.Duration {
	d := r.AckTimeout
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= r.MaxAckTimeout {
			return r.MaxAckTimeout
		}
	}
	return d
}

// BucketConfig parameterizes the exchange-side ingress token bucket. The
// zero value disables shedding.
type BucketConfig struct {
	// Capacity is the bucket size — the burst the session may submit at
	// full rate before shedding starts.
	Capacity int
	// Refill is the virtual time to mint one token (so sustained throughput
	// is one request per Refill).
	Refill sim.Duration
}

// ---------------------------------------------------------------------------
// ClientSession resilience

// StartLiveness arms heartbeats and peer-death detection: every
// cfg.Interval the session emits a heartbeat, and if no inbound traffic has
// arrived for cfg.MissLimit whole intervals the peer is declared dead —
// logged drops, timers stop, and OnPeerDead fires at that exact virtual
// instant.
func (c *ClientSession) StartLiveness(sched *sim.Scheduler, cfg LivenessConfig) {
	if cfg.Interval <= 0 || cfg.MissLimit <= 0 {
		panic("orderentry: StartLiveness with zero interval or miss limit")
	}
	c.sched = sched
	c.live = cfg
	c.lastRx = sched.Now()
	c.startLiveTick()
}

// startLiveTick schedules the next liveness tick if liveness is configured
// and no tick is pending.
func (c *ClientSession) startLiveTick() {
	if c.live.Interval <= 0 || c.liveTick.Pending() {
		return
	}
	c.liveTick = c.sched.AfterArgs(c.live.Interval, sim.PrioControl, clientLiveTickArgs, c, nil).Handle()
}

// clientLiveTickArgs adapts the liveness tick to the scheduler's
// closure-free callback shape.
func clientLiveTickArgs(a, _ any) { a.(*ClientSession).liveTickFire() }

func (c *ClientSession) liveTickFire() {
	c.liveTick = sim.Handle{}
	if c.dead {
		return
	}
	if c.sched.Now().Sub(c.lastRx) > c.live.deadline() {
		c.declarePeerDead()
		return
	}
	c.Heartbeat()
	c.startLiveTick()
}

// declarePeerDead tears the session down: the peer is unreachable. Working
// orders are retained for post-reconnect reconciliation.
func (c *ClientSession) declarePeerDead() {
	if c.dead {
		return
	}
	c.dead = true
	c.logged = false
	c.SessionsDropped++
	c.liveTick.Cancel()
	c.liveTick = sim.Handle{}
	if c.OnPeerDead != nil {
		c.OnPeerDead()
	}
}

// Drop tears the session down from the local side — the transport died
// under it, or the owning process restarted. Equivalent to the liveness
// deadline firing immediately.
func (c *ClientSession) Drop() { c.declarePeerDead() }

// Dead reports whether the session has been declared dead (by either the
// liveness deadline or Drop) and not yet re-logged-on.
func (c *ClientSession) Dead() bool { return c.dead }

// Rebind points the session at a new transport; orderentry-level state
// (sequences, working orders) carries over — that is the point of
// session-level recovery.
func (c *ClientSession) Rebind(send func([]byte)) { c.send = send }

// Relogon starts a reconnect handshake over the (re-bound) transport: a
// logon carrying the next inbound sequence the client expects, so the
// exchange replays everything emitted since. The logon-ack that follows the
// replay triggers reconciliation: still-unacked orders are resubmitted
// (idempotently — the exchange suppresses duplicates by client order id).
func (c *ClientSession) Relogon() {
	c.dead = false
	c.resync = true
	c.emit(&Msg{Kind: KindLogonSeq, ExpectedSeq: c.seqIn + 1})
}

// EnableRetry arms ack-timeout resubmission: a new order that is not acked
// within the (exponentially backed-off, capped) deadline is re-emitted with
// the same client order id, up to MaxResubmits times; then the order is
// dropped from the working set and OnOrderUnknown fires.
func (c *ClientSession) EnableRetry(sched *sim.Scheduler, cfg RetryConfig) {
	if cfg.AckTimeout <= 0 {
		panic("orderentry: EnableRetry with zero ack timeout")
	}
	c.sched = sched
	c.retry = cfg.withDefaults()
}

// ackWait carries one order's pending ack deadline through the scheduler
// without allocating a closure; instances are pooled on the session.
type ackWait struct{ id uint64 }

func (c *ClientSession) getAckWait(id uint64) *ackWait {
	if n := len(c.ackFree); n > 0 {
		w := c.ackFree[n-1]
		c.ackFree = c.ackFree[:n-1]
		w.id = id
		return w
	}
	return &ackWait{id: id}
}

// armAck schedules the ack deadline for an order at its current attempt's
// backoff.
func (c *ClientSession) armAck(id uint64, st *OrderState) {
	if c.retry.AckTimeout <= 0 {
		return
	}
	st.ackTimer.Cancel()
	st.ackTimer = c.sched.AfterArgs(c.retry.backoff(st.attempts), sim.PrioControl,
		ackDeadlineArgs, c, c.getAckWait(id)).Handle()
}

// ackDeadlineArgs adapts the ack-deadline firing to the scheduler's
// closure-free callback shape.
func ackDeadlineArgs(a, b any) {
	c, w := a.(*ClientSession), b.(*ackWait)
	id := w.id
	c.ackFree = append(c.ackFree, w)
	c.ackDeadline(id)
}

func (c *ClientSession) ackDeadline(id uint64) {
	st, ok := c.open[id]
	if !ok || st.Acked {
		return
	}
	st.ackTimer = sim.Handle{}
	st.attempts++
	if st.attempts > c.retry.MaxResubmits {
		c.escalateUnknown(id, st)
		return
	}
	// While the session is down the resubmit is parked — the relogon sweep
	// re-sends it — but the deadline keeps ticking so an order on a session
	// that never reconnects still escalates.
	if c.logged && !c.dead {
		c.Resubmits++
		c.emit(&Msg{Kind: KindNewOrder, OrderID: id, Symbol: st.Symbol,
			Side: st.Side, Price: st.Price, Qty: st.Qty})
	}
	c.armAck(id, st)
}

// escalateUnknown gives up on an order whose resubmits are exhausted: its
// fate at the exchange is unknowable from here, so it leaves the working
// set and the owner is told to stop trusting this session.
func (c *ClientSession) escalateUnknown(id uint64, st *OrderState) {
	st.ackTimer.Cancel()
	delete(c.open, id)
	c.OrdersUnknown++
	if c.OnOrderUnknown != nil {
		c.OnOrderUnknown(id)
	}
}

// OpenIDs returns the client's working order ids, sorted — the client half
// of the "reconnected view matches the exchange book" invariant.
func (c *ClientSession) OpenIDs() []uint64 {
	ids := make([]uint64, 0, len(c.open))
	for id := range c.open { // keys collected then sorted: order-independent
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// reconcile runs after a relogon's logon-ack: every response the exchange
// retained has been replayed and applied, so any order still unacked never
// reached the venue (or its ack is unrecoverable) — resubmit it now, in
// client-order-id order for determinism.
func (c *ClientSession) reconcile() {
	ids := make([]uint64, 0, len(c.open))
	for id := range c.open { // keys collected then sorted: order-independent
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		st := c.open[id]
		if st.Acked {
			continue
		}
		c.Resubmits++
		c.emit(&Msg{Kind: KindNewOrder, OrderID: id, Symbol: st.Symbol,
			Side: st.Side, Price: st.Price, Qty: st.Qty})
		c.armAck(id, st)
	}
}

// ---------------------------------------------------------------------------
// ExchangeSession resilience

// ExchangeResilience bundles the exchange-side session hardening knobs.
// Zero-value fields disable their feature.
type ExchangeResilience struct {
	// Liveness arms exchange-side heartbeats and peer-death detection —
	// the trigger for cancel-on-disconnect.
	Liveness LivenessConfig
	// RetainResponses is how many encoded responses (all kinds, heartbeats
	// included — replay needs a gap-free sequence) are retained for
	// reconnect replay, mirroring the market-data feed's RetainBuffer.
	RetainResponses int
	// Idempotent makes a duplicate new-order for an already-accepted client
	// order id re-emit the original ack instead of rejecting — the
	// suppression that makes client resubmission safe.
	Idempotent bool
	// Bucket is the per-session ingress token bucket; when empty, new and
	// modify requests are shed with RejectBusy instead of queueing.
	Bucket BucketConfig
}

// Harden arms the exchange-side resilience features on this session.
func (e *ExchangeSession) Harden(sched *sim.Scheduler, cfg ExchangeResilience) {
	e.sched = sched
	e.retainCap = cfg.RetainResponses
	e.idempotent = cfg.Idempotent
	if e.idempotent && e.ackedIDs == nil {
		e.ackedIDs = make(map[uint64]uint64)
	}
	e.bucket = cfg.Bucket
	e.tokens = cfg.Bucket.Capacity
	e.lastRefill = sched.Now()
	if cfg.Liveness.Interval > 0 {
		e.live = cfg.Liveness
		e.lastRx = sched.Now()
		e.startLiveTick()
	}
}

func (e *ExchangeSession) startLiveTick() {
	if e.live.Interval <= 0 || e.liveTick.Pending() {
		return
	}
	e.liveTick = e.sched.AfterArgs(e.live.Interval, sim.PrioControl, exchLiveTickArgs, e, nil).Handle()
}

// exchLiveTickArgs adapts the liveness tick to the scheduler's closure-free
// callback shape.
func exchLiveTickArgs(a, _ any) { a.(*ExchangeSession).liveTickFire() }

func (e *ExchangeSession) liveTickFire() {
	e.liveTick = sim.Handle{}
	if e.dead {
		return
	}
	if e.sched.Now().Sub(e.lastRx) > e.live.deadline() {
		e.declarePeerDead()
		return
	}
	e.emit(&Msg{Kind: KindHeartbeat})
	e.startLiveTick()
}

// declarePeerDead marks the client unreachable and fires OnPeerDead — the
// hook the exchange hangs cancel-on-disconnect from. The session object
// survives: a reconnecting client resumes it via KindLogonSeq.
func (e *ExchangeSession) declarePeerDead() {
	if e.dead {
		return
	}
	e.dead = true
	e.logged = false
	e.SessionsDropped++
	e.liveTick.Cancel()
	e.liveTick = sim.Handle{}
	if e.OnPeerDead != nil {
		e.OnPeerDead()
	}
}

// Dead reports whether the peer has been declared dead and has not
// re-logged-on.
func (e *ExchangeSession) Dead() bool { return e.dead }

// Drop declares the peer dead from the transport's side — the connection-
// dead callback feeds here. Equivalent to the liveness deadline firing now.
func (e *ExchangeSession) Drop() { e.declarePeerDead() }

// Rebind points the session at a new transport (the reconnected client's
// stream); sequences and retained responses carry over.
func (e *ExchangeSession) Rebind(send func([]byte)) { e.send = send }

// retain stores an encoded response for reconnect replay, evicting the
// oldest beyond capacity (the evicted buffer is reused for the next copy,
// so a full ring stops allocating).
func (e *ExchangeSession) retain(seq uint32, b []byte) {
	buf := e.retainSpare
	e.retainSpare = nil
	e.retainBuf = append(e.retainBuf, append(buf[:0], b...))
	e.retainSeqs = append(e.retainSeqs, seq)
	if len(e.retainBuf) > e.retainCap {
		e.retainSpare = e.retainBuf[0]
		e.retainBuf = e.retainBuf[1:]
		e.retainSeqs = e.retainSeqs[1:]
	}
}

// relogon services a KindLogonSeq: replay every retained response the
// client never saw — original sequence numbers intact, so the client's
// inbound sequence heals contiguously — then ack the logon with the next
// fresh sequence. If the requested range has rolled out of the retain
// window the session cannot be resynced; the logon is refused with a
// logout, as real venues do.
func (e *ExchangeSession) relogon(m *Msg) {
	if len(e.retainSeqs) > 0 && m.ExpectedSeq < e.retainSeqs[0] {
		e.ResyncRefused++
		e.emit(&Msg{Kind: KindLogout})
		return
	}
	e.dead = false
	e.logged = true
	for i, seq := range e.retainSeqs {
		if seq >= m.ExpectedSeq {
			e.ReplayedMsgs++
			e.send(e.retainBuf[i])
		}
	}
	e.emit(&Msg{Kind: KindLogonAck})
	e.startLiveTick()
}

// admit charges the ingress token bucket, lazily refilled from elapsed
// virtual time; false means the request must be shed.
func (e *ExchangeSession) admit() bool {
	if e.bucket.Capacity <= 0 {
		return true
	}
	if e.bucket.Refill > 0 {
		elapsed := e.sched.Now().Sub(e.lastRefill)
		if n := int(elapsed / e.bucket.Refill); n > 0 {
			e.tokens += n
			if e.tokens > e.bucket.Capacity {
				e.tokens = e.bucket.Capacity
			}
			e.lastRefill = e.lastRefill.Add(sim.Duration(n) * e.bucket.Refill)
		}
	}
	if e.tokens <= 0 {
		return false
	}
	e.tokens--
	return true
}
