package feed

import (
	"math/rand"
	"testing"
)

// TestArbiterRecoveryExactlyOnceProperty is the satellite property test for
// the Arbiter + RecoveryClient composition: when both copies of a datagram
// are lost and the declared gap is recovered out of band *while live A/B
// arbitration keeps running* — late slow-path copies of already-declared
// datagrams, recovery responses interleaved with live delivery, responses
// segmented mid-frame — every published message is still delivered exactly
// once, and the live stream stays strictly in order.
//
// The invariant holds because both components share the datagram as their
// unit of work: the arbiter's holes always open and close on datagram
// boundaries (nextSeq only ever advances to a datagram's start or end), so a
// replayed range covers exactly the declared-lost datagrams and never
// overlaps a live-delivered sequence, while stale late copies are dropped by
// the arbiter's sequence cursor. Randomized drop patterns, reorder delays,
// and response timing across many seeds probe that argument rather than one
// hand-picked interleaving.
func TestArbiterRecoveryExactlyOnceProperty(t *testing.T) {
	const (
		mainDgrams = 150
		tailDgrams = 20 // drop-free tail flushes any open hole past MaxHold
	)
	var totalGaps, totalRecovered, totalLateStale uint64

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))

		counts := make([]int, 0, mainDgrams+tailDgrams)
		for i := 0; i < mainDgrams; i++ {
			counts = append(counts, 1+rng.Intn(4))
		}
		for i := 0; i < tailDgrams; i++ {
			counts = append(counts, 1)
		}
		dgrams := mkDgrams(t, 1, counts...)
		totalMsgs := 0
		for _, n := range counts {
			totalMsgs += n
		}

		// The exchange side retains everything, so every declared loss is
		// recoverable; the server must never refuse.
		rb := NewRetainBuffer(1, len(dgrams))
		for _, d := range dgrams {
			rb.Retain(d)
		}
		srv := NewRecoveryServer(rb)

		arb := NewArbiter(1)
		arb.MaxHold = 3 // small reorder buffer: losses get declared mid-stream

		// Request and response bytes travel on delayed queues so recovery
		// traffic interleaves with — and races — continuing live arbitration.
		type delayed struct {
			at int
			b  []byte
		}
		var reqQ, respQ []delayed
		step := 0
		client := NewRecoveryClient(1, func(req []byte) {
			reqQ = append(reqQ, delayed{step + 1 + rng.Intn(3), append([]byte(nil), req...)})
		})
		arb.OnGap = client.RequestRange
		client.Unrecoverable = func(g GapInfo) {
			t.Fatalf("seed %d: unrecoverable range %+v with a full retain window", seed, g)
		}

		var liveIDs, recIDs []uint64
		onLive := func(m *Msg) { liveIDs = append(liveIDs, m.OrderID) }
		onRec := func(m *Msg) { recIDs = append(recIDs, m.OrderID) }

		var bQ []delayed
		var lateStale uint64
		pump := func() {
			// Late slow-path copies first: some land after their datagram was
			// declared lost (or even after its replay arrived) and must be
			// dropped as stale, not re-delivered.
			rest := bQ[:0]
			for _, d := range bQ {
				if d.at > step {
					rest = append(rest, d)
					continue
				}
				var h UnitHeader
				if _, err := DecodeUnitHeader(d.b, &h); err != nil {
					t.Fatal(err)
				}
				if h.Seq+uint32(h.Count) <= arb.nextSeq {
					lateStale++
				}
				if err := arb.ConsumeB(d.b, onLive); err != nil && err != ErrGap {
					t.Fatalf("seed %d: ConsumeB: %v", seed, err)
				}
			}
			bQ = rest

			due := reqQ[:0]
			for _, r := range reqQ {
				if r.at > step {
					due = append(due, r)
					continue
				}
				srv.Receive(r.b, func(b []byte) {
					respQ = append(respQ, delayed{step + 1 + rng.Intn(3), append([]byte(nil), b...)})
				})
			}
			reqQ = due

			due = respQ[:0]
			for _, r := range respQ {
				if r.at > step {
					due = append(due, r)
					continue
				}
				// Segmented response delivery: frames split mid-header and
				// mid-datagram.
				for b := r.b; len(b) > 0; {
					n := 7
					if n > len(b) {
						n = len(b)
					}
					if err := client.ReceiveRecovery(b[:n], onRec); err != nil {
						t.Fatalf("seed %d: ReceiveRecovery: %v", seed, err)
					}
					b = b[n:]
				}
			}
			respQ = due
		}

		for ; step < len(dgrams); step++ {
			pump()
			tail := step >= mainDgrams
			if tail || rng.Float64() >= 0.30 { // A path delivers
				if err := arb.ConsumeA(dgrams[step], onLive); err != nil && err != ErrGap {
					t.Fatalf("seed %d: ConsumeA: %v", seed, err)
				}
			}
			if tail || rng.Float64() >= 0.35 { // B path delivers, delayed 0-3 steps
				bQ = append(bQ, delayed{step + rng.Intn(4), dgrams[step]})
			}
		}
		for extra := 0; len(bQ)+len(reqQ)+len(respQ) > 0; extra++ {
			if extra > 100 {
				t.Fatalf("seed %d: queues never drained", seed)
			}
			pump()
			step++
		}

		// The property: exactly-once, partitioned cleanly between the live
		// in-order stream and the out-of-band recovery stream.
		seen := make(map[uint64]int, totalMsgs)
		for i, id := range liveIDs {
			if i > 0 && id <= liveIDs[i-1] {
				t.Fatalf("seed %d: live stream out of order at %d: %d after %d",
					seed, i, id, liveIDs[i-1])
			}
			seen[id]++
		}
		for _, id := range recIDs {
			seen[id]++
		}
		for id := uint64(0); id < uint64(totalMsgs); id++ {
			if seen[id] != 1 {
				t.Fatalf("seed %d: order id %d delivered %d times (live=%d recovered=%d)",
					seed, id, seen[id], len(liveIDs), len(recIDs))
			}
		}
		if len(seen) != totalMsgs {
			t.Fatalf("seed %d: %d distinct ids delivered, want %d", seed, len(seen), totalMsgs)
		}

		// Accounting closes: the arbiter's own ledger agrees with what the
		// callbacks saw, and every declared-lost message was recovered.
		msgs, gaps, lost, _ := arb.Stats()
		if msgs != uint64(len(liveIDs)) {
			t.Fatalf("seed %d: arbiter msgs=%d, live callback saw %d", seed, msgs, len(liveIDs))
		}
		if msgs+lost != uint64(totalMsgs) {
			t.Fatalf("seed %d: msgs %d + lost %d != published %d", seed, msgs, lost, totalMsgs)
		}
		if uint64(len(recIDs)) != lost {
			t.Fatalf("seed %d: recovered %d messages, arbiter declared %d lost",
				seed, len(recIDs), lost)
		}
		if client.Requests != gaps {
			t.Fatalf("seed %d: %d recovery requests for %d declared gaps", seed, client.Requests, gaps)
		}
		if srv.Refused != 0 {
			t.Fatalf("seed %d: server refused %d requests with a full window", seed, srv.Refused)
		}
		if arb.Held() != 0 {
			t.Fatalf("seed %d: %d datagrams still held after the drop-free tail", seed, arb.Held())
		}
		totalGaps += gaps
		totalRecovered += uint64(len(recIDs))
		totalLateStale += lateStale
	}

	// The sweep must actually have exercised the interesting interleavings,
	// not vacuously passed on loss-free runs.
	if totalGaps == 0 || totalRecovered == 0 {
		t.Fatalf("property vacuous: gaps=%d recovered=%d across all seeds", totalGaps, totalRecovered)
	}
	if totalLateStale == 0 {
		t.Fatal("no late slow-path copy ever arrived after its loss declaration: race untested")
	}
}
