// Exchange high availability: the venue-side halves of a deterministic
// primary/backup pair. The primary journals every state change — accepted
// operations at engine entry, the byte-exact response transcript of every
// session, every published feed datagram — through a replication.Journal;
// the backup runs dark, applying the journal into a shadow of the primary's
// books, ownership indexes, session transcripts, and feed retain windows.
// Because matching is deterministic, replaying the operation stream through
// the same engine reproduces every exchange order id, execution id, and
// fill byte-for-byte; the adopted transcripts and datagrams are not
// recomputed at all, so a promoted backup resumes order-entry sequences and
// feed numbering exactly where the primary stopped. All of it is opt-in:
// with no journal and no shadow every hot path costs one nil/bool compare.
package exchange

import (
	"fmt"

	"tradenet/internal/fault"
	"tradenet/internal/feed"
	"tradenet/internal/orderentry"
	"tradenet/internal/replication"
	"tradenet/internal/sim"
)

// EnableJournal makes this exchange the primary of a hot-standby pair:
// every subsequent state change streams through the returned journal via
// send (one encoded record per call — callers put it on a dedicated,
// loss-free replication link). Call before wiring sessions, so session
// openings are announced to the standby.
func (e *Exchange) EnableJournal(send func([]byte)) *replication.Journal {
	e.jrn = replication.NewJournal(send)
	return e.jrn
}

// Journal returns the replication journal (nil when not a primary).
func (e *Exchange) Journal() *replication.Journal { return e.jrn }

// StartShadow puts the exchange into dark-standby mode: state advances only
// by journal application (ShadowApply) and nothing is transmitted until
// Promote.
func (e *Exchange) StartShadow() { e.dark = true }

// Dark reports whether the exchange is an unpromoted standby.
func (e *Exchange) Dark() bool { return e.dark }

// Crashed reports whether the process has been killed by a fault.
func (e *Exchange) Crashed() bool { return e.crashed }

// SessionAt returns the i'th accepted session (accept order — the indexing
// a replication pair shares).
func (e *Exchange) SessionAt(i int) *orderentry.ExchangeSession { return e.sessList[i] }

// NumSessions returns how many sessions have been accepted.
func (e *Exchange) NumSessions() int { return len(e.sessList) }

// LastPublishAt returns the virtual time of the most recent feed datagram,
// maintained while journaling — the left edge of a failover's blackout
// window.
func (e *Exchange) LastPublishAt() sim.Time { return e.lastPublishAt }

// FaultName names the exchange process for fault-plan event logs.
func (e *Exchange) FaultName() string { return e.cfg.Name }

// Crash implements fault.Process: the whole venue process dies at this
// instant. Every order-entry and recovery transport it owns is killed (no
// FIN, no reset — silence), session timers stop without firing callbacks,
// and the engine ignores any already-scheduled match events. In-flight
// frames it transmitted earlier still deliver; that is physics, not state.
func (e *Exchange) Crash() {
	if e.crashed {
		return
	}
	e.crashed = true
	for _, sess := range e.sessList {
		sess.Quiesce()
		if link, ok := e.links[sess]; ok && link.stream != nil {
			link.stream.Kill()
		}
	}
	for _, st := range e.recStreams {
		st.Kill()
	}
}

// Compile-time check: an Exchange is a schedulable fault target.
var _ fault.Process = (*Exchange)(nil)

// ShadowApply applies one journal record to a dark standby. Operations run
// through the real engine entry points — acceptance screening already
// happened on the primary — while transcripts and feed datagrams are
// adopted verbatim rather than recomputed.
func (e *Exchange) ShadowApply(r *replication.Record) {
	switch r.Kind {
	case replication.RecSessionOpen:
		if r.Session != len(e.sessList) {
			panic(fmt.Sprintf("%s: shadow session %d opened out of order (have %d)",
				e.cfg.Name, r.Session, len(e.sessList)))
		}
		e.acceptShadow()
	case replication.RecOp:
		sess := e.sessList[r.Session]
		m := orderentry.Msg{OrderID: r.OrderID, Symbol: r.Symbol,
			Side: r.Side, Price: r.Price, Qty: r.Qty}
		switch r.Op {
		case replication.OpNew:
			m.Kind = orderentry.KindNewOrder
			// Mirror the primary's duplicate screen so a post-promotion
			// resubmit of this id is suppressed, not double-matched.
			sess.NoteSeen(r.OrderID)
			e.execNew(sess, &m)
		case replication.OpCancel:
			m.Kind = orderentry.KindCancelOrder
			e.execCancel(sess, &m)
		case replication.OpModify:
			m.Kind = orderentry.KindModifyOrder
			e.execModify(sess, &m)
		}
	case replication.RecSessionTx:
		e.sessList[r.Session].AdoptTx(r.TxSeq, r.Payload)
	case replication.RecFeedRaw:
		e.adoptFeedDgram(int(r.Partition), r.Payload)
	case replication.RecMassCancel:
		e.massCancel(e.sessList[r.Session])
	case replication.RecHeartbeat:
		// Liveness is the cluster layer's concern; nothing to apply.
	}
}

// acceptShadow opens the standby-side twin of a session the primary
// accepted: same index, no transport, muted. Its engine handlers are wired
// now (guarded against the missing stream) so promotion only has to attach
// a transport and unmute.
func (e *Exchange) acceptShadow() *orderentry.ExchangeSession {
	sess := orderentry.NewExchangeSession(func([]byte) {})
	sess.Mute(true)
	if e.res != nil {
		// Retention and idempotency track the primary from the first record;
		// liveness stays dark until promotion (a corpse must not heartbeat,
		// and the standby must not cancel-on-disconnect clients it has never
		// heard from).
		cfg := e.res.Session
		cfg.Liveness = orderentry.LivenessConfig{}
		sess.Harden(e.sched, cfg)
	}
	link := &oeLink{}
	e.links[sess] = link
	e.wireEngine(sess, link)
	e.sessIdx[sess] = len(e.sessList)
	e.sessList = append(e.sessList, sess)
	return sess
}

// adoptFeedDgram installs a primary-published datagram into the standby's
// feed plane: retained for gap recovery, and the partition's packer adopts
// the next sequence so post-promotion publishing continues the numbering
// without a discontinuity — downstream receivers heal the blackout as an
// ordinary gap, or see none at all.
func (e *Exchange) adoptFeedDgram(part int, dgram []byte) {
	var h feed.UnitHeader
	if _, err := feed.DecodeUnitHeader(dgram, &h); err != nil {
		panic(fmt.Sprintf("%s: adopt feed dgram: %v", e.cfg.Name, err))
	}
	e.retain[part].Retain(dgram)
	e.packers[part].SetNextSeq(h.Seq + uint32(h.Count))
	e.Published++
	e.PublishedMsgs += uint64(h.Count)
}

// Promote turns a dark standby into the live venue: publishing resumes and
// every shadow session unmutes and re-arms with grace — a liveness deadline
// wide enough for clients to detect the primary's death and redial before
// cancel-on-disconnect would sweep their orders. Transports attach as
// clients reconnect through ReacceptSession, exactly like any PR 5 session
// re-home.
func (e *Exchange) Promote(grace orderentry.ExchangeResilience) {
	if !e.dark {
		return
	}
	e.dark = false
	for _, sess := range e.sessList {
		sess := sess
		sess.Mute(false)
		sess.Harden(e.sched, grace)
		sess.OnPeerDead = func() { e.cancelOnDisconnect(sess) }
		sess.OnLogout = func() { e.massCancel(sess) }
	}
}
