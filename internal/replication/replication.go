// Package replication implements the state-machine journal a hot-standby
// exchange pair runs over a dedicated stream. The primary is the single
// sequencer: every operation its matching engine accepts (new, cancel,
// modify), every response byte its sessions emit, every feed datagram it
// publishes, and every session-table delta is appended to a monotonically
// sequenced journal and written to the replication transport. The standby
// applies records in journal order into shadow state; because the matching
// engine is deterministic, replaying the accepted-operation stream
// reproduces the primary's books, order ids, and fills exactly — the
// replicated-sequencer architecture cloud exchanges use (PAPERS.md,
// arXiv 2402.09527).
//
// The journal is an ordering contract, not a gossip protocol: records are
// strictly contiguous, and a follower that observes a sequence gap fails
// loudly (the transport is a loss-free stream, so a gap can only be a
// bug). What the journal deliberately does not carry is derived state —
// the standby recomputes books from operations and adopts response/feed
// bytes verbatim, so the two machines cannot drift apart silently.
package replication

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tradenet/internal/market"
)

// RecordKind identifies a journal record.
type RecordKind uint8

// Journal record kinds.
const (
	// RecOp is one operation the primary's engine accepted, at the instant
	// it entered the engine — the write-ahead entry shadow matching
	// replays.
	RecOp RecordKind = iota + 1
	// RecSessionTx is one encoded response emitted on an order-entry
	// session (ack, fill, reject, heartbeat, logon-ack — every kind), with
	// its session-stream sequence. The standby adopts the exact bytes into
	// the shadow session's retain ring so a re-homed client's replay is
	// byte-identical to what the primary would have sent.
	RecSessionTx
	// RecFeedRaw is one published market-data datagram, verbatim. The
	// standby adopts it into its retain buffers and advances its packer
	// sequences, so post-promotion publishes continue the feed without a
	// sequence discontinuity and gap-replay serves history the primary
	// published.
	RecFeedRaw
	// RecMassCancel is a deterministic cancel-on-disconnect sweep of one
	// session's resting orders.
	RecMassCancel
	// RecSessionOpen is a session-table delta: the primary accepted the
	// session at this index. Indexes are allocated in accept order on both
	// machines, so the record doubles as an alignment assertion.
	RecSessionOpen
	// RecHeartbeat is a journal-liveness keepalive carrying no state; its
	// silence is how the standby detects primary death.
	RecHeartbeat
)

// String names the kind.
func (k RecordKind) String() string {
	switch k {
	case RecOp:
		return "op"
	case RecSessionTx:
		return "session-tx"
	case RecFeedRaw:
		return "feed-raw"
	case RecMassCancel:
		return "mass-cancel"
	case RecSessionOpen:
		return "session-open"
	case RecHeartbeat:
		return "heartbeat"
	}
	return "unknown"
}

// OpKind identifies the engine operation inside a RecOp.
type OpKind uint8

// Engine operations.
const (
	OpNew OpKind = iota + 1
	OpCancel
	OpModify
)

// String names the operation.
func (o OpKind) String() string {
	switch o {
	case OpNew:
		return "new"
	case OpCancel:
		return "cancel"
	case OpModify:
		return "modify"
	}
	return "unknown"
}

// Record is the decoded form of any journal record.
type Record struct {
	Kind RecordKind
	Seq  uint64 // journal sequence, contiguous from 1

	// Session is the session-table index for RecOp, RecSessionTx,
	// RecMassCancel, and RecSessionOpen.
	Session int

	// RecOp fields: the accepted operation, in the engine's own units.
	Op      OpKind
	OrderID uint64 // client order id
	Symbol  market.SymbolID
	Side    market.Side
	Price   market.Price
	Qty     market.Qty

	// TxSeq is the session-stream sequence of a RecSessionTx payload.
	TxSeq uint32
	// Partition is the feed partition of a RecFeedRaw payload.
	Partition uint16

	// Payload carries RecSessionTx/RecFeedRaw raw bytes. It aliases the
	// follower's reassembly buffer and is valid only during the Apply
	// callback; appliers that keep it must copy.
	Payload []byte
}

// headerLen is the fixed record prefix: length (4), kind (1), seq (8).
const headerLen = 13

// maxRecordLen is the longest record Append encodes: a RecSessionTx whose
// payload fills its 16-bit length field.
const maxRecordLen = headerLen + 4 + 4 + 2 + 0xffff

// Errors surfaced by the journal codec and follower.
var (
	// ErrShort reports a truncated or malformed record.
	ErrShort = errors.New("replication: truncated record")
	// ErrUnknown reports an unrecognized record kind.
	ErrUnknown = errors.New("replication: unknown record kind")
	// ErrSeqGap reports a journal sequence discontinuity at the follower.
	// The transport is a loss-free stream, so this is always a bug, never
	// weather.
	ErrSeqGap = errors.New("replication: journal sequence gap")
)

// bodyLen returns the fixed body size per kind; payload-bearing kinds add
// their payload length on top.
func bodyLen(k RecordKind) int {
	switch k {
	case RecOp:
		return 4 + 1 + 8 + 4 + 1 + 8 + 8 // session, op, oid, symbol, side, price, qty
	case RecSessionTx:
		return 4 + 4 + 2 // session, txseq, payload len
	case RecFeedRaw:
		return 2 + 2 // partition, payload len
	case RecMassCancel, RecSessionOpen:
		return 4
	case RecHeartbeat:
		return 0
	}
	return -1
}

// Append encodes r (Seq already assigned), appending to b. A payload
// longer than its 16-bit length field can describe is refused, as is an
// unknown kind: either would emit a record Decode rejects.
func Append(b []byte, r *Record) []byte {
	n := bodyLen(r.Kind)
	if n < 0 {
		panic("replication: cannot encode unknown kind")
	}
	switch r.Kind {
	case RecSessionTx, RecFeedRaw:
		if len(r.Payload) > 0xffff {
			panic("replication: payload longer than 65535 bytes")
		}
		n += len(r.Payload)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(headerLen+n))
	b = append(b, byte(r.Kind))
	b = binary.BigEndian.AppendUint64(b, r.Seq)
	switch r.Kind {
	case RecOp:
		b = binary.BigEndian.AppendUint32(b, uint32(r.Session))
		b = append(b, byte(r.Op))
		b = binary.BigEndian.AppendUint64(b, r.OrderID)
		b = binary.BigEndian.AppendUint32(b, uint32(r.Symbol))
		b = append(b, byte(r.Side))
		b = binary.BigEndian.AppendUint64(b, uint64(r.Price))
		b = binary.BigEndian.AppendUint64(b, uint64(r.Qty))
	case RecSessionTx:
		b = binary.BigEndian.AppendUint32(b, uint32(r.Session))
		b = binary.BigEndian.AppendUint32(b, r.TxSeq)
		b = binary.BigEndian.AppendUint16(b, uint16(len(r.Payload)))
		b = append(b, r.Payload...)
	case RecFeedRaw:
		b = binary.BigEndian.AppendUint16(b, r.Partition)
		b = binary.BigEndian.AppendUint16(b, uint16(len(r.Payload)))
		b = append(b, r.Payload...)
	case RecMassCancel, RecSessionOpen:
		b = binary.BigEndian.AppendUint32(b, uint32(r.Session))
	}
	return b
}

// Decode parses one record from the front of b into r, returning the rest.
// Payload fields alias b.
func Decode(b []byte, r *Record) ([]byte, error) {
	if len(b) < headerLen {
		return nil, ErrShort
	}
	length := int(binary.BigEndian.Uint32(b))
	if length < headerLen || length > len(b) {
		return nil, ErrShort
	}
	k := RecordKind(b[4])
	want := bodyLen(k)
	if want < 0 {
		return nil, ErrUnknown
	}
	*r = Record{Kind: k, Seq: binary.BigEndian.Uint64(b[5:])}
	p := b[headerLen:length]
	if len(p) < want {
		return nil, ErrShort
	}
	switch k {
	case RecOp:
		r.Session = int(binary.BigEndian.Uint32(p))
		r.Op = OpKind(p[4])
		r.OrderID = binary.BigEndian.Uint64(p[5:])
		r.Symbol = market.SymbolID(binary.BigEndian.Uint32(p[13:]))
		r.Side = market.Side(p[17])
		r.Price = market.Price(binary.BigEndian.Uint64(p[18:]))
		r.Qty = market.Qty(binary.BigEndian.Uint64(p[26:]))
	case RecSessionTx:
		r.Session = int(binary.BigEndian.Uint32(p))
		r.TxSeq = binary.BigEndian.Uint32(p[4:])
		n := int(binary.BigEndian.Uint16(p[8:]))
		if len(p) != want+n {
			return nil, ErrShort
		}
		r.Payload = p[10 : 10+n]
	case RecFeedRaw:
		r.Partition = binary.BigEndian.Uint16(p)
		n := int(binary.BigEndian.Uint16(p[2:]))
		if len(p) != want+n {
			return nil, ErrShort
		}
		r.Payload = p[4 : 4+n]
	case RecMassCancel, RecSessionOpen:
		r.Session = int(binary.BigEndian.Uint32(p))
	}
	return b[length:], nil
}

// Journal is the primary-side sender: it assigns contiguous sequence
// numbers, encodes records, and hands the bytes to the transport. One
// record per send call — the stream layer coalesces into segments.
type Journal struct {
	send    func([]byte)
	seq     uint64
	scratch []byte

	// Records and Bytes count everything journaled, by record and by
	// encoded size — the replication-bandwidth observables.
	Records uint64
	Bytes   uint64
}

// NewJournal returns a journal transmitting via send. The slice passed to
// send is reused by the next call.
func NewJournal(send func([]byte)) *Journal {
	return &Journal{send: send}
}

// Seq returns the sequence of the last record written.
func (j *Journal) Seq() uint64 { return j.seq }

// write assigns the next sequence and transmits r.
func (j *Journal) write(r *Record) {
	j.seq++
	r.Seq = j.seq
	j.scratch = Append(j.scratch[:0], r)
	j.Records++
	j.Bytes += uint64(len(j.scratch))
	j.send(j.scratch)
}

// Op journals one accepted engine operation.
func (j *Journal) Op(session int, op OpKind, orderID uint64, sym market.SymbolID,
	side market.Side, price market.Price, qty market.Qty) {
	j.write(&Record{Kind: RecOp, Session: session, Op: op, OrderID: orderID,
		Symbol: sym, Side: side, Price: price, Qty: qty})
}

// SessionTx journals one emitted session response verbatim.
func (j *Journal) SessionTx(session int, txSeq uint32, raw []byte) {
	j.write(&Record{Kind: RecSessionTx, Session: session, TxSeq: txSeq, Payload: raw})
}

// FeedRaw journals one published feed datagram verbatim.
func (j *Journal) FeedRaw(partition int, dgram []byte) {
	j.write(&Record{Kind: RecFeedRaw, Partition: uint16(partition), Payload: dgram})
}

// MassCancel journals a cancel-on-disconnect sweep of one session.
func (j *Journal) MassCancel(session int) {
	j.write(&Record{Kind: RecMassCancel, Session: session})
}

// SessionOpen journals a session-table delta.
func (j *Journal) SessionOpen(session int) {
	j.write(&Record{Kind: RecSessionOpen, Session: session})
}

// Heartbeat journals a liveness keepalive.
func (j *Journal) Heartbeat() {
	j.write(&Record{Kind: RecHeartbeat})
}

// Follower is the standby-side receiver: it reassembles records from
// arbitrary stream segmentation, verifies journal-sequence contiguity, and
// dispatches each record to Apply in order. It is fail-stop: the first
// malformed or out-of-sequence record stops it for good.
type Follower struct {
	// Apply consumes one decoded record. Payload fields alias the
	// reassembly buffer and are valid only for the duration of the call.
	Apply func(*Record)

	buf     []byte
	nextSeq uint64
	rec     Record
	err     error // the error that stopped the follower

	// Applied and Bytes count everything dispatched; LastSeq is the last
	// journal sequence applied — the replay-depth observables.
	Applied uint64
	Bytes   uint64
}

// LastSeq returns the journal sequence of the last record applied.
func (f *Follower) LastSeq() uint64 { return f.nextSeq }

// Receive ingests transport bytes, dispatching every complete record. Once
// a record fails to decode or breaks the sequence, that call and every
// later one return the same error and buffer nothing more.
func (f *Follower) Receive(data []byte) error {
	if f.err != nil {
		return f.err
	}
	f.buf = append(f.buf, data...)
	off := 0
	defer func() {
		// Compact once per call, not per record.
		f.buf = f.buf[:copy(f.buf, f.buf[off:])]
	}()
	for {
		b := f.buf[off:]
		if len(b) < headerLen {
			return nil
		}
		length := int(binary.BigEndian.Uint32(b))
		if length < headerLen || length > maxRecordLen {
			f.err = fmt.Errorf("%w: declared length %d", ErrShort, length)
			return f.err
		}
		if len(b) < length {
			return nil
		}
		if _, err := Decode(b[:length], &f.rec); err != nil {
			f.err = err
			return err
		}
		if f.rec.Seq != f.nextSeq+1 {
			f.err = fmt.Errorf("%w: got %d, want %d", ErrSeqGap, f.rec.Seq, f.nextSeq+1)
			return f.err
		}
		f.nextSeq = f.rec.Seq
		f.Applied++
		f.Bytes += uint64(length)
		if f.Apply != nil {
			f.Apply(&f.rec)
		}
		off += length
	}
}
