package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"tradenet/internal/market"
)

// sampleRecords covers every kind with non-zero fields.
func sampleRecords() []Record {
	return []Record{
		{Kind: RecSessionOpen, Session: 3},
		{Kind: RecOp, Session: 1, Op: OpNew, OrderID: 42, Symbol: 7,
			Side: market.Sell, Price: 10_050, Qty: 300},
		{Kind: RecSessionTx, Session: 1, TxSeq: 9, Payload: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Kind: RecFeedRaw, Partition: 12, Payload: bytes.Repeat([]byte{0xab}, 100)},
		{Kind: RecOp, Session: 2, Op: OpCancel, OrderID: 42},
		{Kind: RecOp, Session: 2, Op: OpModify, OrderID: 42, Symbol: 7,
			Side: market.Buy, Price: 10_051, Qty: 100},
		{Kind: RecMassCancel, Session: 2},
		{Kind: RecHeartbeat},
	}
}

// TestAppendRefusesOversizedPayload: a payload that fills the 16-bit length
// field round-trips; one byte more is refused rather than encoded with a
// truncated length that Decode would reject.
func TestAppendRefusesOversizedPayload(t *testing.T) {
	for _, k := range []RecordKind{RecSessionTx, RecFeedRaw} {
		r := Record{Kind: k, Seq: 1, Payload: make([]byte, 0xffff)}
		var got Record
		if _, err := Decode(Append(nil, &r), &got); err != nil || len(got.Payload) != 0xffff {
			t.Fatalf("%v: 65535-byte payload decodes as %d bytes, %v", k, len(got.Payload), err)
		}
		r.Payload = make([]byte, 0x10000)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: Append encoded a 65536-byte payload", k)
				}
			}()
			Append(nil, &r)
		}()
	}
}

func TestAppendDecodeRoundTrip(t *testing.T) {
	for i, r := range sampleRecords() {
		r.Seq = uint64(i + 1)
		enc := Append(nil, &r)
		var got Record
		rest, err := Decode(enc, &got)
		if err != nil {
			t.Fatalf("record %d (%v): decode: %v", i, r.Kind, err)
		}
		if len(rest) != 0 {
			t.Fatalf("record %d: %d trailing bytes", i, len(rest))
		}
		// Payload aliases enc; compare then clear for the struct equality.
		if !bytes.Equal(got.Payload, r.Payload) {
			t.Fatalf("record %d: payload %x, want %x", i, got.Payload, r.Payload)
		}
		got.Payload, r.Payload = nil, nil
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, r)
		}
	}
}

func TestDecodeRejectsTruncatedAndUnknown(t *testing.T) {
	r := Record{Kind: RecOp, Seq: 1, Op: OpNew, OrderID: 1, Symbol: 1, Price: 1, Qty: 1}
	enc := Append(nil, &r)
	var out Record
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut], &out); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
	bad := append([]byte(nil), enc...)
	bad[4] = 0xEE // unknown kind
	if _, err := Decode(bad, &out); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown kind: err = %v, want ErrUnknown", err)
	}
}

// TestJournalFollowerStream journals every kind, delivers the bytes in
// pathological segmentation (1-byte trickle), and checks the follower
// applies every record once, in order, contiguously sequenced.
func TestJournalFollowerStream(t *testing.T) {
	var wire []byte
	j := NewJournal(func(b []byte) { wire = append(wire, b...) })

	in := sampleRecords()
	for _, r := range in {
		r := r
		switch r.Kind {
		case RecOp:
			j.Op(r.Session, r.Op, r.OrderID, r.Symbol, r.Side, r.Price, r.Qty)
		case RecSessionTx:
			j.SessionTx(r.Session, r.TxSeq, r.Payload)
		case RecFeedRaw:
			j.FeedRaw(int(r.Partition), r.Payload)
		case RecMassCancel:
			j.MassCancel(r.Session)
		case RecSessionOpen:
			j.SessionOpen(r.Session)
		case RecHeartbeat:
			j.Heartbeat()
		}
	}
	if j.Records != uint64(len(in)) || j.Seq() != uint64(len(in)) {
		t.Fatalf("journal: %d records, seq %d, want %d", j.Records, j.Seq(), len(in))
	}
	if j.Bytes != uint64(len(wire)) {
		t.Fatalf("journal bytes = %d, wire = %d", j.Bytes, len(wire))
	}

	var got []Record
	f := &Follower{Apply: func(r *Record) {
		c := *r
		c.Payload = append([]byte(nil), r.Payload...) // outlive the buffer
		got = append(got, c)
	}}
	for i := 0; i < len(wire); i++ { // worst-case segmentation
		if err := f.Receive(wire[i : i+1]); err != nil {
			t.Fatalf("receive byte %d: %v", i, err)
		}
	}
	if len(got) != len(in) {
		t.Fatalf("applied %d records, want %d", len(got), len(in))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		want := in[i]
		if r.Kind != want.Kind || r.Session != want.Session || r.Op != want.Op ||
			r.OrderID != want.OrderID || r.TxSeq != want.TxSeq ||
			r.Partition != want.Partition || !bytes.Equal(r.Payload, want.Payload) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, want)
		}
	}
	if f.Applied != uint64(len(in)) || f.LastSeq() != uint64(len(in)) {
		t.Fatalf("follower: applied %d, lastSeq %d", f.Applied, f.LastSeq())
	}
	if f.Bytes != uint64(len(wire)) {
		t.Fatalf("follower bytes = %d, wire = %d", f.Bytes, len(wire))
	}
}

// TestFollowerDetectsSeqGap: a skipped record must fail loudly, not apply.
func TestFollowerDetectsSeqGap(t *testing.T) {
	var recs [][]byte
	j := NewJournal(func(b []byte) { recs = append(recs, append([]byte(nil), b...)) })
	j.Heartbeat()
	j.Heartbeat()
	j.Heartbeat()

	applied := 0
	f := &Follower{Apply: func(*Record) { applied++ }}
	if err := f.Receive(recs[0]); err != nil {
		t.Fatalf("first record: %v", err)
	}
	err := f.Receive(recs[2]) // skip seq 2
	if !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap err = %v, want ErrSeqGap", err)
	}
	if applied != 1 {
		t.Fatalf("applied %d records, want 1 (gap record must not apply)", applied)
	}
}

// TestFollowerFailStop: after a bad record the follower applies nothing
// more, returns the first error on every later call without buffering the
// input, and a header declaring more than the codec can encode is an error,
// not a wait.
func TestFollowerFailStop(t *testing.T) {
	var wire []byte
	j := NewJournal(func(b []byte) { wire = append(wire, b...) })
	j.Heartbeat()
	j.Heartbeat()
	bad := append([]byte(nil), wire[:headerLen]...)
	bad[4] = 0xee // no such kind
	applied := 0
	f := &Follower{Apply: func(*Record) { applied++ }}
	first := f.Receive(bad)
	if !errors.Is(first, ErrUnknown) {
		t.Fatalf("unknown kind: err = %v, want ErrUnknown", first)
	}
	buffered := len(f.buf)
	for i := 0; i < 2; i++ {
		if err := f.Receive(wire); err != first {
			t.Fatalf("call %d after the bad record: err = %v, want %v again", i+1, err, first)
		}
	}
	if applied != 0 || len(f.buf) != buffered {
		t.Fatalf("stopped follower applied %d records and grew its buffer %d -> %d bytes", applied, buffered, len(f.buf))
	}

	huge := []byte{0xff, 0xff, 0xff, 0xff, byte(RecHeartbeat), 0, 0, 0, 0, 0, 0, 0, 1}
	if err := (&Follower{}).Receive(huge); !errors.Is(err, ErrShort) {
		t.Fatalf("4 GB length: err = %v, want ErrShort", err)
	}
}

// TestFollowerCoalescedSegments: many records in one Receive call all
// dispatch, and a record split across the call boundary heals.
func TestFollowerCoalescedSegments(t *testing.T) {
	var wire []byte
	j := NewJournal(func(b []byte) { wire = append(wire, b...) })
	for i := 0; i < 50; i++ {
		j.Op(i, OpNew, uint64(i), market.SymbolID(i+1), market.Buy,
			market.Price(1000+i), market.Qty(10))
	}
	applied := 0
	f := &Follower{Apply: func(r *Record) {
		if r.OrderID != uint64(applied) {
			t.Fatalf("record %d: order id %d", applied, r.OrderID)
		}
		applied++
	}}
	cut := len(wire)/2 + 5 // mid-record
	if err := f.Receive(wire[:cut]); err != nil {
		t.Fatalf("first half: %v", err)
	}
	if err := f.Receive(wire[cut:]); err != nil {
		t.Fatalf("second half: %v", err)
	}
	if applied != 50 {
		t.Fatalf("applied %d, want 50", applied)
	}
}

// recordsFrom returns one record of every kind, sequenced from 1, with the
// fields each kind carries drawn from data (zeros once data runs out).
func recordsFrom(data []byte) []Record {
	next := func(n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v <<= 8
			if len(data) > 0 {
				v |= uint64(data[0])
				data = data[1:]
			}
		}
		return v
	}
	payload := func() []byte {
		n := min(int(next(1)), len(data))
		p := data[:n]
		data = data[n:]
		return p
	}
	var out []Record
	for k := RecOp; k <= RecHeartbeat; k++ {
		r := Record{Kind: k, Seq: uint64(len(out) + 1)}
		switch k {
		case RecOp:
			r.Session, r.Op, r.OrderID = int(next(4)), OpKind(next(1)), next(8)
			r.Symbol, r.Side = market.SymbolID(next(4)), market.Side(next(1))
			r.Price, r.Qty = market.Price(next(8)), market.Qty(next(8))
		case RecSessionTx:
			r.Session, r.TxSeq, r.Payload = int(next(4)), uint32(next(4)), payload()
		case RecFeedRaw:
			r.Partition, r.Payload = uint16(next(2)), payload()
		case RecMassCancel, RecSessionOpen:
			r.Session = int(next(4))
		}
		out = append(out, r)
	}
	return out
}

// sameRecord reports whether two records are equal, payloads by content.
func sameRecord(a, b Record) bool {
	if !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	a.Payload, b.Payload = nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzJournalDecode feeds arbitrary bytes to the journal codec and the
// follower. Decode must never panic, and a record it accepts must re-encode
// to one that decodes the same. One record of every kind, with fields drawn
// from the input, must round-trip through Append and Decode. A follower must
// never panic, whether it receives the input alone or the input spliced into
// a valid stream, and a valid stream torn at input-chosen points must apply
// every record in order.
func FuzzJournalDecode(f *testing.F) {
	var stream []byte
	for i, r := range sampleRecords() {
		r.Seq = uint64(i + 1)
		enc := Append(nil, &r)
		f.Add(enc)
		stream = append(stream, enc...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-7])
	// The longest payload Append encodes, and the record an Append without
	// its length check wrote for a payload one byte longer: the full record
	// length over a 16-bit payload length that wrapped to 0.
	f.Add(Append(nil, &Record{Kind: RecSessionTx, Seq: 1, Payload: make([]byte, 0xffff)}))
	over := Append(nil, &Record{Kind: RecFeedRaw, Seq: 1})
	binary.BigEndian.PutUint32(over, uint32(len(over)+0x10000))
	f.Add(append(over, make([]byte, 0x10000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Record
		if rest, err := Decode(data, &r); err == nil {
			if len(rest) >= len(data) {
				t.Fatalf("Decode accepted a record and consumed nothing")
			}
			var again Record
			if _, err := Decode(Append(nil, &r), &again); err != nil || !sameRecord(again, r) {
				t.Fatalf("re-encoded %+v decodes as %+v, %v", r, again, err)
			}
		}

		recs := recordsFrom(data)
		var valid []byte
		for _, want := range recs {
			if want.Kind.String() == "unknown" {
				t.Fatalf("kind %d has no name", want.Kind)
			}
			enc := Append(nil, &want)
			var got Record
			rest, err := Decode(enc, &got)
			if err != nil || len(rest) != 0 || !sameRecord(got, want) {
				t.Fatalf("%v: round trip gave %+v, %d trailing bytes, %v; want %+v", want.Kind, got, len(rest), err, want)
			}
			valid = append(valid, enc...)
		}

		_ = (&Follower{}).Receive(data) // any error is fine; a panic is not

		applied := 0
		torn := &Follower{Apply: func(r *Record) {
			if !sameRecord(*r, recs[applied]) {
				t.Fatalf("record %d applied as %+v, want %+v", applied, *r, recs[applied])
			}
			applied++
		}}
		rest := valid
		for _, b := range data {
			n := min(int(b)%32, len(rest))
			if err := torn.Receive(rest[:n]); err != nil {
				t.Fatalf("torn valid stream: %v", err)
			}
			rest = rest[n:]
		}
		if err := torn.Receive(rest); err != nil || applied != len(recs) {
			t.Fatalf("torn valid stream applied %d of %d records, %v", applied, len(recs), err)
		}

		cut := 0
		if len(data) > 0 {
			cut = int(data[0]) % (len(valid) + 1)
		}
		spliced := &Follower{}
		_ = spliced.Receive(valid[:cut])
		_ = spliced.Receive(data)
		_ = spliced.Receive(valid[cut:])
	})
}
